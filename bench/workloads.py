"""The benchmark's workloads: inputs made from a seed, timed rounds, checks.

Each workload has a fixed list of operations per round. setup() makes the
inputs from the workload seed; run_round() runs one round on them into a
fresh directory and returns its wall time and outputs; check() compares
those outputs with values computed in checks.py, apart from the program.

Program seeds are words of numpy's SeedSequence([seed]), so a run's inputs
depend on the workload seed alone; two inputs do not depend on it at all
(see Sweep.config_seed and Capacity.m12_seed).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

import coopcap.capacity as capacity
import coopcap.channel as channel
import coopcap.cli as cli
import coopcap.coding as coding

import checks


def seed_words(*key: int, count: int) -> list[int]:
    """count 32-bit program seeds derived from the key."""
    return [int(w) for w in np.random.SeedSequence(list(key)).generate_state(count)]


class Ops:
    """Counts the operations a run attempted and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def outcome(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def run_cli(argv: list[str]) -> tuple[int, str]:
    """coopcap's command line in-process, with its stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _key_values(line: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in line.split() if "=" in token)


class ChannelM14:
    """The largest channel the cap allows, built, stored, read back and
    coded; channel and coding layers only."""

    name = "channel-m14"
    ops_per_round = 10
    m, p, eps = 14, 0.85, 0.05
    mc_trials = 50_000

    def setup(self, seed: int, workdir: Path) -> dict:
        construct_seed, honest_seed, fixed_seed = seed_words(seed, count=3)
        params = channel.ConstructionParams.with_defaults(
            self.m, epsilon=self.eps, p=self.p, seed=construct_seed
        )
        return {"params": params, "honest_seed": honest_seed, "fixed_seed": fixed_seed}

    def run_round(self, inputs: dict, ops: Ops, out: Path):
        binary_path, text_path = out / "channel.bin.maccf", out / "channel.txt.maccf"
        t0 = time.perf_counter()
        built = ops.call(channel.construct_channel, inputs["params"])
        ops.call(channel.serialize_channel, built, binary_path, binary=True)
        ops.call(channel.serialize_channel, built, text_path)
        read_binary = ops.call(channel.deserialize_channel, binary_path)
        read_text = ops.call(channel.deserialize_channel, text_path)
        reports = {}
        for orientation in ("r1", "r2"):
            report = ops.call(coding.verify_zero_error, coding.CfCode(built, orientation))
            reports[orientation] = (report.pairs_checked, report.failures)
        code = coding.CfCode(built, "r1")
        honest = ops.call(coding.monte_carlo_error, code, self.mc_trials, inputs["honest_seed"])
        fixed = ops.call(
            coding.monte_carlo_error, code, self.mc_trials, inputs["fixed_seed"],
            facilitator=lambda code, w1, w2: 1,
        )
        uniform = np.full(built.n, 1.0 / built.n)
        rate = ops.call(capacity.sum_rate, built, uniform, uniform)
        wall = time.perf_counter() - t0
        return wall, {
            "ie_estimate_bits": rate,
            "built": built,
            "reads": {"binary": read_binary, "text": read_text},
            "paths": {"binary": binary_path, "text": text_path},
            "reports": reports,
            "honest": honest,
            "fixed": fixed,
        }

    def check(self, inputs: dict, result: dict) -> list[str]:
        params = inputs["params"]
        packed = result["built"].matrix.packed_rows
        g = params.g_of_m
        header = checks.maccf_header(
            params.m, params.p, params.epsilon, params.f_of_m, g, params.seed
        )
        errors = checks.bad_fraction_errors(packed, params.p)
        for kind, path in result["paths"].items():
            errors += checks.maccf_file_errors(path, header, packed, binary=kind == "binary")
            read = result["reads"][kind]
            if not (read.block_property_verified and read.params == params
                    and np.array_equal(read.matrix.packed_rows, packed)):
                errors.append(f"the {kind} file does not read back as the constructed channel")
        dense = np.unpackbits(packed, axis=1, count=packed.shape[0])
        errors += checks.block_property_errors(dense, g)
        errors += checks.pairs_errors(result["reports"], params.m, g)
        share = checks.fixed_helper_share(dense, g)
        errors += checks.monte_carlo_errors(result["honest"], result["fixed"], share, self.mc_trials)
        errors += checks.uniform_rate_errors(result["ie_estimate_bits"], dense)
        return errors


class Sweep:
    """coopcap sweep through the command line: many small optimizer
    problems with restarts, plus the sweep's persistence and bounds."""

    name = "sweep-m6-10"
    ops_per_round = 3  # one per sweep row
    m_values = (6, 8, 10)
    eps, p, restarts = 0.05, 0.85, 8
    # The config's own default seed, whatever the workload seed. The sweep's
    # time is set by how long the optimizer runs on each channel and start:
    # with config seeds drawn from the workload seed, the median round took
    # from 12.4 s to 18.1 s over five workload seeds, a spread no bound
    # allows. A gain claimed on this workload must be tried on other config
    # seeds as well.
    config_seed = 0

    def setup(self, seed: int, workdir: Path) -> dict:
        return {}

    def config(self, out: Path) -> dict:
        return {
            "m_values": list(self.m_values),
            "epsilon": self.eps,
            "p_override": self.p,
            "restarts": self.restarts,
            "seed": self.config_seed,
            "output_dir": str(out / "sweep"),
        }

    def run_round(self, inputs: dict, ops: Ops, out: Path):
        config = self.config(out)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(config))
        t0 = time.perf_counter()
        code, printed = run_cli(["sweep", "--config", str(config_path)])
        wall = time.perf_counter() - t0
        rows = []
        records = Path(config["output_dir"]) / "records.jsonl"
        if records.exists():
            rows = [json.loads(line) for line in records.read_text().splitlines() if line]
        by_m = {row["m"]: row for row in rows}
        for m in self.m_values:
            ops.outcome(m in by_m and by_m[m]["error"] is None)
        estimate = by_m[self.m_values[-1]]["ie_estimate"] if self.m_values[-1] in by_m else float("nan")
        return wall, {"ie_estimate_bits": estimate, "code": code, "printed": printed, "config": config}

    def check(self, inputs: dict, result: dict) -> list[str]:
        config = result["config"]
        want = f"rows={len(self.m_values)} failed=0 out={config['output_dir']}\n"
        errors = []
        if result["code"] != 0 or result["printed"] != want:
            errors.append(f"sweep exited {result['code']} printing {result['printed']!r}")
        return errors + checks.sweep_errors(
            config["output_dir"], self.m_values, self.eps, self.p, config["seed"]
        )


class Capacity:
    """One large optimizer problem through the command line (m = 12, no
    restarts, the dense operator) and the grid oracle on an m = 2 channel."""

    name = "capacity"
    ops_per_round = 3
    m12, p, eps = 12, 0.85, 0.05
    # The m = 12 channel does not depend on the workload seed: its estimate
    # stops unconverged on every run (the stalled marginal update), and that
    # counted failure must be the same share of every run.
    m12_seed = 12
    restarts, grid_steps = 8, 64

    def setup(self, seed: int, workdir: Path) -> dict:
        params = channel.ConstructionParams.with_defaults(
            self.m12, epsilon=self.eps, p=self.p, seed=self.m12_seed
        )
        path = workdir / "m12.maccf"
        channel.serialize_channel(channel.construct_channel(params), path, binary=True)
        matrix_seed, restart_seed = seed_words(seed, count=2)
        dense = (np.random.default_rng(matrix_seed).random((4, 4)) < 0.5).astype(np.uint8)
        small = channel.channel_from_matrix(
            channel.ChannelMatrix.from_dense(dense), g=1, verify=False
        )
        return {"m12_path": path, "dense2": dense, "small": small, "restart_seed": restart_seed}

    def run_round(self, inputs: dict, ops: Ops, out: Path):
        marginals_path = out / "marginals.json"
        argv = ["capacity", str(inputs["m12_path"]), "--restarts", "0",
                "--marginals-out", str(marginals_path)]
        t0 = time.perf_counter()
        code, printed = run_cli(argv)
        small = inputs["small"]
        optimized = ops.call(
            capacity.maximize_sum_rate, small, restarts=self.restarts, seed=inputs["restart_seed"]
        )
        grid = ops.call(capacity.brute_force_sum_capacity, small, self.grid_steps)
        wall = time.perf_counter() - t0
        fields = _key_values(printed)
        ops.outcome(code == 0 and fields.get("converged") == "true")
        marginals = json.loads(marginals_path.read_text()) if marginals_path.exists() else None
        return wall, {
            "ie_estimate_bits": marginals["sum_rate"] if marginals else float("nan"),
            "code": code,
            "fields": fields,
            "marginals": marginals,
            "optimized": optimized,
            "grid": grid,
        }

    def check(self, inputs: dict, result: dict) -> list[str]:
        fields = result["fields"]
        if result["code"] != 0 or result["marginals"] is None or fields.get("restarts") != "0":
            return [f"capacity exited {result['code']} printing {fields}"]
        dense12 = checks.dense_from_file(inputs["m12_path"])
        errors = checks.capacity_errors(dense12, result["marginals"], float(fields["sum_rate"]))
        grid = result["grid"]
        errors += checks.grid_errors(
            inputs["dense2"], grid.value, grid.p1.probs, grid.p2.probs,
            result["optimized"].value, steps=self.grid_steps,
        )
        return errors


WORKLOADS = {w.name: w for w in (ChannelM14(), Sweep(), Capacity())}
