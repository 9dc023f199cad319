import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from boostcap import channel, quadrature, sweep
from boostcap.channel import PacketFrame, lambda_numeric
from boostcap.cli import _quadrature_from, build_parser, main
from boostcap.errors import DomainError
from boostcap.sweep import (COLUMNS, SweepSpec, check_no_nan, load_config_file,
                            make_manifest, render_csv, render_json, render_svg,
                            run_sweep)
from boostcap.quadrature import DEFAULT_CONFIG, SWEEP_CONFIG, QuadratureConfig


@pytest.fixture(scope="module")
def fig2_rows():
    spec = SweepSpec(axis="inv_gamma", start=0.02, stop=0.6, steps=9, fixed=0.0)
    return spec, run_sweep(spec, SWEEP_CONFIG, jobs=1)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(axis="sigma", start=0, stop=1, steps=5, fixed=0.0)
        with pytest.raises(DomainError):
            SweepSpec(axis="zeta", start=1.0, stop=0.0, steps=5, fixed=1.0)
        with pytest.raises(DomainError):
            SweepSpec(axis="zeta", start=0.0, stop=1.0, steps=1, fixed=1.0)
        with pytest.raises(DomainError):
            SweepSpec(axis="inv_gamma", start=0.0, stop=1.0, steps=5, fixed=0.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="stop"):
                SweepSpec(axis="zeta", start=-1.0, stop=bad, steps=3, fixed=1.0)
            with pytest.raises(DomainError, match="start"):
                SweepSpec(axis="zeta", start=bad, stop=1.0, steps=3, fixed=1.0)
            with pytest.raises(DomainError, match="fixed"):
                SweepSpec(axis="inv_gamma", start=0.1, stop=1.0, steps=3, fixed=bad)
        for bad in (2.5, 3.0, "3"):
            with pytest.raises(DomainError, match="steps"):
                SweepSpec("inv_gamma", 0.1, 1.0, bad, 0.0)
        with pytest.raises(DomainError, match="start"):
            SweepSpec("inv_gamma", "0.1", 1.0, 3, 0.0)
        with pytest.raises(DomainError, match="stop"):
            SweepSpec("inv_gamma", 0.1, None, 3, 0.0)
        with pytest.raises(DomainError, match="fixed"):
            SweepSpec("zeta", -1.0, 1.0, 3, [1.0])
        # numpy integers are counts, and are stored as ints
        spec = SweepSpec("inv_gamma", 0.1, 1.0, np.int64(3), 0.0)
        assert type(spec.steps) is int and spec.grid() == [0.1, 0.55, 1.0]

    def test_grid_endpoints(self):
        spec = SweepSpec(axis="zeta", start=-2.0, stop=0.0, steps=5, fixed=0.1)
        g = spec.grid()
        assert g[0] == -2.0 and g[-1] == 0.0 and len(g) == 5


class TestSweepRun:
    def test_two_step_schema(self):
        spec = SweepSpec(axis="inv_gamma", start=0.2, stop=0.4, steps=2, fixed=0.0)
        rows = run_sweep(spec, SWEEP_CONFIG, jobs=1)
        assert len(rows) == 2
        for row in rows:
            assert row["status"] == "ok"
            assert set(COLUMNS) <= set(row) | {"status"}
        check_no_nan(rows)

    def test_fig2_shape(self, fig2_rows):
        spec, rows = fig2_rows
        caps = [r["classical_capacity"] for r in rows]
        hashing = [r["hashing"] for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(caps, caps[1:]))
        for r in rows:
            assert 0.0 <= r["hashing"] <= r["classical_capacity"] <= 1.0 + 1e-12
        flips = sum(1 for a, b in zip(rows, rows[1:])
                    if (a["cerf"] - 0.5) * (b["cerf"] - 0.5) < 0)
        assert flips == 1
        assert hashing[0] == 0.0 and hashing[-1] > 0.0

    def test_parallel_matches_serial(self, fig2_rows):
        spec, rows = fig2_rows
        rows2 = run_sweep(spec, SWEEP_CONFIG, jobs=2)
        assert render_csv(rows2) == render_csv(rows)

    def test_zeta_axis(self):
        spec = SweepSpec(axis="zeta", start=-2.0, stop=0.0, steps=3, fixed=0.05)
        rows = run_sweep(spec, SWEEP_CONFIG, jobs=1)
        assert rows[0]["hashing"] > 0.0          # strongly boosted
        assert rows[-1]["hashing"] == 0.0        # at rest, zero capacity packet

    def test_jobs_is_ignored(self, monkeypatch):
        # sweeps run in this process: rows do not depend on jobs, no process
        # pool is reachable from the module, and the CLI has no --jobs
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert not any(name == "ProcessPoolExecutor" or value is concurrent.futures
                       for name, value in vars(sweep).items())
        spec = SweepSpec(axis="inv_gamma", start=0.2, stop=0.4, steps=3, fixed=0.0)
        rows = run_sweep(spec, SWEEP_CONFIG)
        for jobs in (None, 1, 2, 5000, 0, -3):
            assert run_sweep(spec, SWEEP_CONFIG, "closed_profile", jobs) == rows
        with pytest.raises(SystemExit) as exc:
            main(["sweep-gamma", "--start", "0.2", "--stop", "0.4", "--steps", "3",
                  "--zeta", "0", "--jobs", "2"])
        assert exc.value.code == 2

    def test_failed_points_flagged_run_continues(self):
        from boostcap.quadrature import QuadratureConfig
        spec = SweepSpec(axis="inv_gamma", start=0.1, stop=0.5, steps=3, fixed=0.0)
        starved = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13, max_subdivisions=1)
        rows = run_sweep(spec, starved, jobs=1)
        assert len(rows) == 3
        assert all(r["status"] == "error:ConvergenceError" for r in rows)
        check_no_nan(rows)  # failed cells are empty, not NaN
        payload = render_csv(rows).decode()
        assert "error:ConvergenceError" in payload


def _bits(rows: list[dict]) -> list[tuple]:
    return [(r["status"],) + tuple(float.hex(r[c]) for c in ("l1", "l2", "l3"))
            for r in rows]


class TestBatchedSweep:
    # every grid runs as one batch, its rounds in blocks of the round cap
    @pytest.mark.parametrize("spec, method", [
        pytest.param(SweepSpec("inv_gamma", 0.001, 1.0, 40, -1.0), "closed_profile",
                     id="spec0"),                                           # approaching
        pytest.param(SweepSpec("inv_gamma", 0.001, 1.0, 40, 0.0), "closed_profile",
                     id="spec1"),                                           # rest
        pytest.param(SweepSpec("inv_gamma", 0.001, 1.0, 40, 1.0), "closed_profile",
                     id="spec2"),                                           # receding
        pytest.param(SweepSpec("zeta", -3.0, 2.0, 40, 0.5), "closed_profile", id="spec3"),
        pytest.param(SweepSpec("zeta", -1.0, 0.5, 3, 1.0), "quadrature", id="oracle"),
    ])
    def test_rows_are_those_of_one_frame_evaluation(self, monkeypatch, spec, method):
        # bitwise, which also guards the batch-wide stop of the elliptic AGM:
        # a node's value must not depend on which other nodes share its call,
        # nor on the block of the round that it falls in
        channel._frame_integrals.cache_clear()
        alone = [{"status": "ok", **dict(zip(
            ("l1", "l2", "l3"),
            lambda_numeric(PacketFrame(1.0 / r["inv_gamma"], r["zeta"]), SWEEP_CONFIG,
                           method).as_tuple()))} for r in run_sweep(spec, SWEEP_CONFIG, method)]
        for cap in (1, 7, quadrature._ROUND_CAP):
            monkeypatch.setattr(quadrature, "_ROUND_CAP", cap)
            assert _bits(run_sweep(spec, SWEEP_CONFIG, method)) == _bits(alone), cap

    def test_failed_point_is_flagged_and_leaves_the_others_alone(self, monkeypatch):
        passes = []

        def counting(frames, cfg):
            passes.append(len(frames))
            return closed_integrals(frames, cfg)

        closed_integrals = channel._closed_integrals
        monkeypatch.setattr(channel, "_closed_integrals", counting)
        # at Gamma = 1 the frames at zeta = 2..6 converge within 30, 30, 33,
        # 34 and 36 subdivisions, so under a budget of 35 only the last fails
        budget = QuadratureConfig(SWEEP_CONFIG.abs_tol, SWEEP_CONFIG.rel_tol, 35)
        rows = run_sweep(SweepSpec("zeta", 2.0, 6.0, 5, 1.0), budget)
        assert [r["status"] for r in rows] == ["ok"] * 4 + ["error:ConvergenceError"]
        assert rows[4]["zeta"] == 6.0
        assert all(rows[4].get(c) is None for c in COLUMNS[3:16])
        # the failure is its row's entry from the one pass
        assert passes == [5]
        assert rows[:4] == run_sweep(SweepSpec("zeta", 2.0, 5.0, 4, 1.0), budget)

    def test_a_curve_is_one_pass_whatever_fails(self, monkeypatch):
        # a 200-point curve is one _closed_integrals call; the five frames
        # that exhaust a budget of 35 are their rows' entries from that call
        passes = []

        def counting(frames, cfg):
            passes.append(len(frames))
            return closed_integrals(frames, cfg)

        closed_integrals = channel._closed_integrals
        monkeypatch.setattr(channel, "_closed_integrals", counting)
        budget = QuadratureConfig(SWEEP_CONFIG.abs_tol, SWEEP_CONFIG.rel_tol, 35)
        rows = run_sweep(SweepSpec("zeta", 2.0, 6.0, 200, 1.0), budget)
        assert passes == [200]
        assert {r["index"]: r["status"] for r in rows if r["status"] != "ok"} == \
            dict.fromkeys(range(195, 200), "error:ConvergenceError")

    @pytest.mark.parametrize("method", ["closed_profile", "quadrature"])
    def test_zero_cutoff_angle_is_flagged(self, method):
        # the cutoff angle rounds to 0 at zeta = -21 and -20
        rows = run_sweep(SweepSpec("zeta", -21.0, -18.0, 4, 0.05), SWEEP_CONFIG, method)
        assert [r["status"] for r in rows] == ["error:RangeError"] * 2 + ["ok"] * 2

    def test_unknown_method_raises_before_any_quadrature(self, monkeypatch):
        # a method that no point can use is the caller's error, not a row's
        def refused(*args):
            raise AssertionError("quadrature ran for an unknown method")

        monkeypatch.setattr(sweep, "lambda_batch", refused)
        monkeypatch.setattr(sweep, "_eval_point", refused)
        with pytest.raises(DomainError, match="unknown lambda method 'bogus'"):
            run_sweep(SweepSpec("zeta", -1.0, 0.5, 3, 1.0), SWEEP_CONFIG, "bogus")

    def test_point_without_a_frame_is_flagged(self):
        # 1/inv_gamma overflows at the first point, whose frame cannot be
        # made: it is its own flagged row, and the others run as one batch
        rows = run_sweep(SweepSpec("inv_gamma", 1e-320, 0.5, 3, 0.0), SWEEP_CONFIG)
        assert [r["status"] for r in rows] == ["error:DomainError", "ok", "ok"]
        assert rows == [sweep._eval_point(r["index"], r["inv_gamma"], r["zeta"],
                                          SWEEP_CONFIG, "closed_profile") for r in rows]


class TestSweepMemory:
    # a sweep is one batch, so its largest round sets its peak: blocked at
    # quadrature._ROUND_CAP intervals, the 200-point receding curve peaked
    # at 2.8 MB under tracemalloc (9.9 MB unblocked), and a 32-point oracle
    # sweep at 7.5 MB (40 MB unblocked), whose nested azimuthal worklists
    # are blocked too
    @pytest.mark.parametrize("spec, method, bound_mb", [
        (SweepSpec("inv_gamma", 0.001, 1.0, 200, 1.0), "closed_profile", 4.5),
        (SweepSpec("inv_gamma", 0.2, 1.0, 32, 0.5), "quadrature", 15.0),
    ], ids=["receding-curve", "oracle-sweep"])
    def test_peak_is_bounded_by_the_round_cap(self, spec, method, bound_mb):
        tracemalloc.start()
        try:
            rows = run_sweep(spec, SWEEP_CONFIG, method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r["status"] == "ok" for r in rows)
        assert peak < bound_mb * 1e6


class TestRendering:
    def test_csv_deterministic_and_rfc4180(self, fig2_rows):
        spec, rows = fig2_rows
        payload = render_csv(rows)
        assert payload == render_csv(rows)
        lines = payload.decode().split("\r\n")
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == len(rows) + 2  # header + rows + trailing newline
        first = lines[1].split(",")
        assert first[COLUMNS.index("status")] == "ok"
        float(first[COLUMNS.index("l1")])  # parses as a number

    def test_manifest_identity(self, fig2_rows):
        spec, rows = fig2_rows
        m1 = make_manifest(spec, SWEEP_CONFIG, "closed_profile")
        m2 = make_manifest(spec, SWEEP_CONFIG, "closed_profile")
        assert m1.manifest_id == m2.manifest_id
        m3 = make_manifest(spec, SWEEP_CONFIG, "quadrature")
        assert m3.manifest_id != m1.manifest_id
        doc = json.loads(render_json(rows, m1))
        assert doc["manifest"]["manifest_id"] == m1.manifest_id
        assert len(doc["rows"]) == len(rows)
        # identical manifests promise byte-identical CSV, so the identity of a
        # fixed spec and config must not drift with how the manifest is built
        assert m1.manifest_id == \
            "2ba0cb2ea174d6189e35517b659f9c1ac782b18307ce1ad15d0e8cf50bbf7826"
        assert m1.quadrature == {"abs_tol": 1e-12, "rel_tol": 1e-8,
                                 "max_subdivisions": 2000}

    def test_fast_path_csv_bytes_pinned(self, fig2_rows):
        # pinned when the fast path began to seed the log singularity at
        # pi/2, compute D without cancellation and scale its rows by a power
        # of two near 2 pi / N; against 30-digit mpmath references every
        # eigenvalue of both grids is within 1.6e-15, and the receding grid
        # went from errors up to 9.2e-15 to 4.4e-16
        _, rows = fig2_rows
        receding = run_sweep(SweepSpec("zeta", -1.0, 2.0, 7, 1.0), DEFAULT_CONFIG, jobs=1)
        assert hashlib.sha256(render_csv(rows)).hexdigest() == \
            "45494e62fd2b82a2e2550aaac4f32fe5eee0444387432becd9ec1c775bf91c0a"
        assert hashlib.sha256(render_csv(receding)).hexdigest() == \
            "f150fb7e0f1ee18afc5b81ec9fc2bbe69f63da7e071ab683881388b4897d9775"

    def test_fast_path_csv_bytes_on_every_worklist_loop(self, monkeypatch):
        # the pinned curves run 9 and 7 frames, below the array loop's
        # threshold; a long curve's rows problems run on it, with or without
        # the hand-over to the generators, and must render the same bytes
        spec = SweepSpec("inv_gamma", 0.001, 1.0, 200, 1.0)
        assert spec.steps >= quadrature._ARRAY_MIN_PROBLEMS
        payloads = []
        for least in (1, quadrature._ARRAY_MIN_PROBLEMS, 10 ** 9):
            monkeypatch.setattr(quadrature, "_ARRAY_MIN_PROBLEMS", least)
            payloads.append(render_csv(run_sweep(spec, SWEEP_CONFIG)))
        assert payloads[0] == payloads[1] == payloads[2]

    def test_svg_structure(self, fig2_rows):
        spec, rows = fig2_rows
        svg = render_svg(rows, spec)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "stroke-dasharray" in svg  # crossing rule present on this range


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "quad.conf"
        p.write_text("# comment\nrel_tol = 1e-9\nmax_subdivisions = 500\n")
        values = load_config_file(str(p))
        assert values == {"rel_tol": 1e-9, "max_subdivisions": 500}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "quad.conf"
        p.write_text("foo = 1\n")
        with pytest.raises(DomainError):
            load_config_file(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "quad.conf"
        p.write_text("rel_tol = banana\n")
        with pytest.raises(DomainError):
            load_config_file(str(p))


class TestCli:
    def test_capacity_json(self, capsys):
        assert main(["capacity", "--inv-gamma", "0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hashing_raw"] == pytest.approx(0.5255, abs=2e-3)
        assert doc["cerf_zero_capacity"] is False

    def test_velocity_conversion(self, capsys):
        assert main(["lambdas", "--gamma", "1.0", "--velocity", "-0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["zeta"] == pytest.approx(math.atanh(-0.5), rel=1e-12)

    def test_invalid_velocity_usage_error(self, capsys):
        assert main(["lambdas", "--gamma", "1.0", "--velocity", "1.5"]) == 2

    @pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
    def test_infinite_tolerance_usage_error(self, flag, capsys):
        assert main(["lambdas", "--gamma", "1", flag, "inf"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_strongly_receding_wide_packet_converges(self, capsys):
        # this frame once exhausted the polar budget and exited 3
        assert main(["lambdas", "--gamma", "1000", "--zeta", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["l2"] < -0.999

    def test_zero_cutoff_angle_usage_error(self, capsys):
        assert main(["lambdas", "--gamma", "20", "--zeta", "-20"]) == 2
        assert "cutoff angle" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, capsys):
        code = main(["capacity", "--gamma", "1.0", "--max-subdivisions", "1"])
        assert code == 3

    def test_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "plot.svg"
        jsn = tmp_path / "sweep.json"
        code = main(["sweep-gamma", "--start", "0.05", "--stop", "0.5",
                     "--steps", "4", "--zeta", "0", "--out", str(out),
                     "--svg", str(svg), "--json", str(jsn)])
        assert code == 0
        payload = out.read_bytes()
        assert payload.splitlines()[0].decode() == ",".join(COLUMNS)
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        import hashlib
        assert manifest["data_files"]["sweep.csv"] == hashlib.sha256(payload).hexdigest()
        assert json.loads(jsn.read_text())["manifest"]["manifest_id"] == \
            manifest["manifest_id"]
        assert svg.read_text().startswith("<svg")

    def test_config_file_and_env(self, tmp_path, capsys, monkeypatch):
        def resolved(*flags):
            return _quadrature_from(build_parser().parse_args(
                ["lambdas", "--gamma", "1.0", *flags]))

        monkeypatch.delenv("BOOSTCAP_CONFIG", raising=False)
        assert resolved() == SWEEP_CONFIG
        p = tmp_path / "quad.conf"
        p.write_text("rel_tol = 1e-6\nmax_subdivisions = 500\n")
        monkeypatch.setenv("BOOSTCAP_CONFIG", str(p))
        assert main(["lambdas", "--gamma", "1.0"]) == 0
        capsys.readouterr()
        # sweep defaults < file < flags
        assert resolved() == QuadratureConfig(abs_tol=SWEEP_CONFIG.abs_tol,
                                              rel_tol=1e-6, max_subdivisions=500)
        assert resolved("--rel-tol", "1e-7", "--abs-tol", "1e-11") == \
            QuadratureConfig(abs_tol=1e-11, rel_tol=1e-7, max_subdivisions=500)
        # --config beats $BOOSTCAP_CONFIG
        q = tmp_path / "other.conf"
        q.write_text("abs_tol = 1e-9\n")
        assert resolved("--config", str(q)) == QuadratureConfig(
            abs_tol=1e-9, rel_tol=SWEEP_CONFIG.rel_tol,
            max_subdivisions=SWEEP_CONFIG.max_subdivisions)
        assert resolved("--config", str(q), "--max-subdivisions", "7") == QuadratureConfig(
            abs_tol=1e-9, rel_tol=SWEEP_CONFIG.rel_tol, max_subdivisions=7)

    def test_threshold_commands(self, capsys):
        assert main(["threshold-gamma", "--zeta", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.05 < doc["inv_gamma_threshold"] < 0.3
        assert main(["threshold-boost", "--inv-gamma", "0.05"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["zeta_threshold"] < 0.0
        # precondition violation surfaces as a usage error
        assert main(["threshold-boost", "--inv-gamma", "0.3"]) == 2


class TestVerifyNegativeControl:
    def test_sign_flip_breaks_keystone(self):
        from boostcap.verify import run_verify
        rep = run_verify("fast", lambda2_sign_flip=True)
        assert rep.passed is False
        failing = {c.name for c in rep.checks if not c.passed}
        assert "channel.keystone_pauli_identification" in failing

    def test_cli_exit_codes(self, capsys):
        assert main(["verify", "--level", "fast"]) == 0
        capsys.readouterr()
        assert main(["verify", "--level", "fast",
                     "--inject-lambda2-sign-flip"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert set(out) == {"level", "passed", "wall_seconds", "checks"}
        for check in out["checks"]:
            assert set(check) == {"name", "residual", "tolerance", "passed", "seconds", "note"}
