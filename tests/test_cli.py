import csv
import hashlib
import json
import subprocess
import sys

import pytest

from ulam.cli import main


def run_cli(*argv, env_extra=None, stdin=""):
    import os
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "ulam.cli", *argv],
                          capture_output=True, text=True, input=stdin, env=env)


class TestSample:
    def test_words_satisfy_invariants(self, tmp_path):
        out = tmp_path / "words.csv"
        assert main(["sample", "--n", "2", "--k", "2", "--count", "3",
                     "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            letters = sorted(int(v) for v in line.split(","))
            assert letters == [1, 1, 2, 2]

    def test_unique_word(self):
        res = run_cli("sample", "--n", "1", "--k", "3", "--count", "1")
        assert res.returncode == 0
        assert res.stdout.strip() == "1,1,1"

    def test_json_format(self, tmp_path):
        out = tmp_path / "words.json"
        main(["sample", "--n", "2", "--k", "1", "--count", "2", "--seed", "4",
              "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        assert isinstance(data, list) and len(data) == 2

    def test_out_creates_missing_directories(self, tmp_path):
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert main(["sample", "--n", "2", "--k", "2", "--count", "1",
                     "--out", str(out)]) == 0
        assert sorted(out.read_text().strip().split(",")) == ["1", "1", "2", "2"]
        man = json.loads((out.parent / "manifest.json").read_text())
        assert man["output_paths"] == [str(out)]

    def test_missing_n_exits_2(self):
        res = run_cli("sample", "--k", "2", "--count", "1")
        assert res.returncode == 2
        assert "--n" in res.stderr

    @pytest.mark.parametrize("seed, csv_text, json_text", [
        (0, "4,4,3,2,2,1,3,1\n4,2,3,4,1,2,3,1\n4,3,2,1,2,1,4,3\n",
         "[[4, 4, 3, 2, 2, 1, 3, 1], [4, 2, 3, 4, 1, 2, 3, 1], [4, 3, 2, 1, 2, 1, 4, 3]]\n"),
        (5, "3,1,3,1,4,2,2,4\n2,3,4,1,3,2,4,1\n2,3,4,3,4,2,1,1\n",
         "[[3, 1, 3, 1, 4, 2, 2, 4], [2, 3, 4, 1, 3, 2, 4, 1], [2, 3, 4, 3, 4, 2, 1, 1]]\n"),
        (123, "4,2,2,4,1,3,1,3\n3,1,4,1,2,3,4,2\n3,1,3,4,1,2,2,4\n",
         "[[4, 2, 2, 4, 1, 3, 1, 3], [3, 1, 4, 1, 2, 3, 4, 2], [3, 1, 3, 4, 1, 2, 2, 4]]\n"),
    ])
    def test_output_bytes_are_pinned(self, capsys, seed, csv_text, json_text):
        for fmt, text in (("csv", csv_text), ("json", json_text)):
            assert main(["sample", "--n", "4", "--k", "2", "--count", "3",
                         "--seed", str(seed), "--format", fmt]) == 0
            assert capsys.readouterr().out == text


@pytest.mark.parametrize("argv, option", [
    (["sample", "--n", "2", "--k", "2", "--count", "-2"], "--count"),
    (["verify", "--clouds", "-3", "--boundary", "0"], "--clouds"),
    (["verify", "--clouds", "1", "--boundary", "-1"], "--boundary"),
    (["verify", "--clouds", "1", "--boundary", "0", "--max-t", "0"], "--max-t"),
])
def test_count_below_its_range_exits_2(capsys, argv, option):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"error: {option} must be >= " in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_estimate_rejects_jobs_below_one(capsys, tmp_path, jobs):
    for geometry in (["--n", "3", "--k", "2"],
                     ["--mode", "poisson", "--x", "2", "--t", "3", "--lambda", "1"]):
        argv = ["estimate", *geometry, "--reps", "4", "--jobs", jobs,
                "--out-dir", str(tmp_path / "e")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: --jobs must be >= 1, got {jobs}" in err
        assert not (tmp_path / "e").exists()


class TestLis:
    def test_word_examples(self, capsys):
        assert main(["lis", "--word", "2,2,1,1", "--order", "strict"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["lis", "--word", "1,1,2,2", "--order", "weak"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_empty_input(self):
        res = run_cli("lis", stdin="")
        assert res.returncode == 0
        assert res.stdout.strip() == "0"

    def test_point_file(self, tmp_path, capsys):
        f = tmp_path / "pts.csv"
        f.write_text("0.5,1\n0.7,2\n0.9,2\n")
        assert main(["lis", "--input", str(f), "--order", "weak"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_parse_failure_exits_2(self):
        res = run_cli("lis", "--word", "a,b,c")
        assert res.returncode == 2

    def test_one_letter_word(self, capsys):
        for order in ("strict", "weak"):
            assert main(["lis", "--word", "5", "--order", order]) == 0
            assert capsys.readouterr().out.strip() == "1"

    def test_nan_point_exits_2(self, tmp_path, capsys):
        assert main(["lis", "--word", "nan,1"]) == 2
        f = tmp_path / "pts.csv"
        f.write_text("0.5,1\nnan,2\n")
        assert main(["lis", "--input", str(f)]) == 2
        assert "must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["99999999999999999999", "1,99999999999999999999",
                                      "-99999999999999999999,1"])
    def test_letter_beyond_int64_exits_2(self, capsys, word):
        assert main(["lis", f"--word={word}"]) == 2
        assert "99999999999999999999 does not fit" in capsys.readouterr().err

    def test_large_row_numbers_cost_no_memory(self, capsys):
        # rows are ranked before the point set is built, so a row near 1e11
        # needs no offset per row up to it
        assert main(["lis", "--word", "0.5,100000000000"]) == 0
        assert capsys.readouterr().out == "1\n"
        assert main(["lis", "--word", "0.5,3\n0.7,1000000000000", "--order", "strict"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_row_below_one_exits_2(self, capsys):
        assert main(["lis", "--word", "0.5,2\n0.7,0"]) == 2
        assert "row 0 is not a positive integer" in capsys.readouterr().err


class TestSimulate:
    def test_counts_non_decreasing(self, tmp_path):
        d = tmp_path / "sim"
        assert main(["simulate", "--x", "10", "--t", "100", "--lambda", "1",
                     "--variant", "strict", "--seed", "7", "--out-dir", str(d)]) == 0
        rows = (d / "counts.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 100
        counts = [int(r.split(",")[1]) for r in rows]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_alpha_derives_sink_rate(self, tmp_path):
        d = tmp_path / "simb"
        assert main(["simulate", "--x", "5", "--t", "20", "--lambda", "1",
                     "--variant", "strict", "--alpha", "1", "--seed", "3",
                     "--out-dir", str(d)]) == 0
        man = json.loads((d / "manifest.json").read_text())
        assert man["parameters"]["sink_param"] == pytest.approx(0.5)

    def test_invalid_weak_rate_exits_2(self, tmp_path):
        code = main(["simulate", "--x", "1", "--t", "5", "--lambda", "1",
                     "--variant", "weak", "--beta", "0.5",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("extra, message", [
        (["--alpha", "1", "--beta", "2"], "give at most one of --alpha / --beta"),
        (["--alpha", "1", "--variant", "weak"], "--alpha applies to the strict variant"),
        (["--beta", "2"], "--beta applies to the weak variant"),
    ], ids=["alpha-and-beta", "alpha-weak", "beta-strict"])
    def test_rate_of_the_other_variant_exits_2(self, tmp_path, capsys, extra, message):
        d = tmp_path / "d"
        assert main(["simulate", "--x", "1", "--t", "3", "--lambda", "1", *extra,
                     "--out-dir", str(d)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not d.exists()

    def test_domain_error_leaves_nothing(self, tmp_path, capsys):
        d = tmp_path / "d"
        assert main(["simulate", "--x", "2", "--t", "3", "--lambda", "nan",
                     "--out-dir", str(d)]) == 2
        assert "domain error" in capsys.readouterr().err
        assert not d.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option, extra, message", [
        ("x", [], "x and lam must be positive and finite, got x={}, lam=1.0"),
        ("lambda", [], "x and lam must be positive and finite, got x=1.0, lam={}"),
        ("lambda", ["--alpha", "1"],
         "lam and alpha must be positive and finite, got lam={}, alpha=1.0"),
        ("lambda", ["--variant", "weak", "--beta", "2"],
         "lam must be positive and finite, got lam={}"),
        ("alpha", [], "lam and alpha must be positive and finite, got lam=1.0, alpha={}"),
        ("beta", ["--variant", "weak"],
         "weak variant requires beta > lam and beta finite, got beta={}, lam=1.0"),
    ], ids=["x", "lam", "lam-alpha", "lam-beta", "alpha", "beta"])
    def test_non_finite_parameter_is_named(self, tmp_path, capsys, option, extra, message,
                                           value):
        geometry = {"x": "1", "t": "3", "lambda": "1"}
        geometry[option] = value
        d = tmp_path / "d"
        assert main(["simulate", *(f"--{k}={v}" for k, v in geometry.items()), *extra,
                     "--out-dir", str(d)]) == 2
        assert message.format(value) in capsys.readouterr().err
        assert not d.exists()

    def test_input_too_large_for_memory_exits_2(self, tmp_path, capsys):
        # 1e15 rows of Poisson counts ask for 7.11 PiB, more than any address
        # space: numpy fails at once and nothing is allocated
        d = tmp_path / "d"
        assert main(["simulate", "--x", "1", "--t", "1000000000000000", "--lambda", "1",
                     "--out-dir", str(d)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: not enough memory: ")
        assert "Traceback" not in err and not d.exists()

    def test_trace_written(self, tmp_path):
        d = tmp_path / "simt"
        main(["simulate", "--x", "3", "--t", "10", "--lambda", "1",
              "--variant", "weak", "--seed", "9", "--trace", "--out-dir", str(d)])
        header = (d / "trace.csv").read_text().splitlines()[0]
        assert header == "step,particle_index,position,event"

    # SHA-256 of counts.csv followed by trace.csv, pinned before the scalar
    # step rules moved to lists (weak) and to one gather per row (strict)
    @pytest.mark.parametrize("mode, digest", [
        (["--variant", "strict"],
         "9f8b17e8deac1622637f8e5113651146c18ac46128903984b37ac87958c26383"),
        (["--variant", "weak"],
         "affd53da651a6166a45d6cdffaec29b1bf06c7b47c9184779a3dcc3afcdee471"),
        (["--variant", "strict", "--alpha", "0.7"],
         "4eaded8f78aa7fc5a4ef02618cca9b3829a602e1f5d893c6d4ca2bfa5c31cb4f"),
        (["--variant", "weak", "--beta", "1.6"],
         "b065af857ef3d1cabdcb82e22f21aa61463abbe6c188f0b782fbcf0462b13f61"),
    ])
    def test_trace_bytes_are_pinned(self, tmp_path, mode, digest):
        import hashlib
        d = tmp_path / "sim"
        assert main(["simulate", "--x", "30", "--t", "40", "--lambda", "1", "--seed", "5",
                     "--trace", *mode, "--out-dir", str(d)]) == 0
        data = (d / "counts.csv").read_bytes() + (d / "trace.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestEstimate:
    def test_report_schema_and_prediction(self, tmp_path):
        d = tmp_path / "est"
        assert main(["estimate", "--n", "400", "--k", "100", "--order", "strict",
                     "--reps", "10", "--seed", "3", "--out-dir", str(d)]) == 0
        rep = json.loads((d / "report.json").read_text())
        assert rep["predicted"] == 300.0
        assert set(rep) == {"command", "params", "seed", "mean", "stderr",
                            "reps", "predicted", "rel_error"}
        plot = (d / "plot.csv").read_text().splitlines()
        assert plot[0] == "n,k,mean,stderr,predicted"

    @pytest.mark.parametrize("order", ["strict", "weak"])
    @pytest.mark.parametrize("n, k", [(10, 1000), (100, 400)])
    def test_no_prediction_beyond_k_le_n(self, tmp_path, n, k, order):
        d = tmp_path / "est"
        assert main(["estimate", "--n", str(n), "--k", str(k), "--order", order,
                     "--reps", "3", "--seed", "3", "--out-dir", str(d)]) == 0
        rep = json.loads((d / "report.json").read_text())
        assert rep["predicted"] is None and rep["rel_error"] is None
        assert set(rep) == {"command", "params", "seed", "mean", "stderr",
                            "reps", "predicted", "rel_error"}
        if (n, order) == (10, "strict"):
            assert (rep["mean"], rep["stderr"]) == (10.0, 0.0)  # every chain is all n

    def test_reps_beyond_stream_block_exits_2(self, tmp_path, capsys):
        for mode in (["--n", "2", "--k", "2"],
                     ["--mode", "poisson", "--x", "1", "--t", "4", "--lambda", "1"]):
            assert main(["estimate", *mode, "--reps", str(2**32 + 1),
                         "--out-dir", str(tmp_path / "e")]) == 2
            assert "reps must be <= 2**32" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_poisson_mode_bad_geometry_exits_2(self, tmp_path, capsys):
        for geometry, message in ((["--x", "1", "--t", "0"], "t must be >= 1"),
                                  (["--x", "-2", "--t", "3"], "x and lam must be positive")):
            assert main(["estimate", "--mode", "poisson", *geometry, "--lambda", "1",
                         "--order", "weak", "--reps", "2",
                         "--out-dir", str(tmp_path / "e")]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode, extra, option", [
        (["--n", "3", "--k", "2"], ["--x", "nan"], "--x"),
        (["--n", "3", "--k", "2"], ["--t", "4"], "--t"),
        (["--n", "3", "--k", "2"], ["--lambda", "1"], "--lambda"),
        (["--mode", "poisson", "--x", "1", "--t", "4", "--lambda", "1"], ["--n", "3"], "--n"),
        (["--mode", "poisson", "--x", "1", "--t", "4", "--lambda", "1"], ["--k", "2"], "--k"),
    ])
    def test_option_of_the_other_mode_exits_2(self, tmp_path, capsys, mode, extra, option):
        assert main(["estimate", *mode, *extra, "--reps", "4",
                     "--out-dir", str(tmp_path / "e")]) == 2
        assert f"error: {option} " in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_poisson_mode(self, tmp_path):
        d = tmp_path / "estp"
        assert main(["estimate", "--mode", "poisson", "--x", "1", "--t", "4",
                     "--lambda", "1", "--order", "weak", "--reps", "20",
                     "--seed", "5", "--out-dir", str(d)]) == 0
        rep = json.loads((d / "report.json").read_text())
        assert rep["predicted"] == 5.0

    @pytest.mark.parametrize("order", ["strict", "weak"])
    def test_poisson_mode_no_prediction_below_t_eq_x_lam(self, tmp_path, order):
        d = tmp_path / "estp"
        assert main(["estimate", "--mode", "poisson", "--order", order, "--x", "5",
                     "--t", "2", "--lambda", "1", "--reps", "4", "--seed", "0",
                     "--out-dir", str(d)]) == 0
        report = (d / "report.json").read_text()
        assert '"predicted": null' in report and '"rel_error": null' in report
        row = list(csv.reader((d / "plot.csv").open()))[1]
        assert row[:3] == ["5.0", "2", "1.0"] and row[-1] == ""


class TestVerifyAndTails:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--clouds", "60", "--boundary", "30",
                     "--seed", "5"]) == 0
        assert "passed" in capsys.readouterr().out

    def test_verify_names_a_failing_instance(self, monkeypatch, capsys):
        from ulam import cli
        calls = []
        real = cli.verify_line_identity

        def fail_one(cloud, boundary, variant):
            calls.append((boundary is None, variant))
            # call 9 is the strict run of instance 4, the second boundary cloud
            return len(calls) != 9 and real(cloud, boundary, variant)

        monkeypatch.setattr(cli, "verify_line_identity", fail_one)
        assert main(["verify", "--clouds", "3", "--boundary", "2", "--seed", "13"]) == 1
        out, err = capsys.readouterr()
        assert out == "line identity: 9/10 instances passed\n"
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("line identity failed: instance 4 (boundary, strict) x=")
        assert " t=" in lines[0] and " lam=" in lines[0] and " alpha=" in lines[0]
        assert lines[0].endswith(" seed=13")

    @pytest.mark.parametrize("max_x", ["-3", "0.01", "nan", "inf"])
    def test_max_x_outside_its_range_exits_2(self, capsys, max_x):
        assert main(["verify", "--clouds", "2", "--boundary", "1",
                     "--max-x", max_x]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --max-x must be at least 0.05 and finite, got {float(max_x)}\n"

    def test_max_x_at_its_floor_runs(self, capsys):
        assert main(["verify", "--clouds", "4", "--boundary", "2", "--max-x", "0.05"]) == 0
        assert capsys.readouterr().out == "line identity: 12/12 instances passed\n"

    def test_tails_poisson_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.csv"
        assert main(["tails", "--kind", "poisson", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("kind,lam,a,")

    def test_tails_all_bytes_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "tails.csv"
        assert main(["tails", "--kind", "all", "--out", str(out)]) == 1
        assert capsys.readouterr().out == "tail certificates: 713/778 grid points passed\n"
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "270ecf90c96f0c6ad08427f39eb5bf417921cc454ff06a7705d67433a7c3a59a")

    @pytest.mark.parametrize("kind, selected", [
        ("all", ["poisson_lower", "poisson_upper", "binomial_upper", "binomial_lower",
                 "geomsum_upper", "geomsum_lower"]),
        ("poisson", ["poisson_lower", "poisson_upper"]),
        ("binomial", ["binomial_upper", "binomial_lower"]),
        ("geomsum", ["geomsum_upper", "geomsum_lower"]),
        *[(kind, [kind]) for kind in ("poisson_lower", "poisson_upper", "binomial_upper",
                                      "binomial_lower", "geomsum_upper", "geomsum_lower")],
    ])
    def test_tails_kind_selects_kinds_in_order(self, tmp_path, kind, selected):
        out = tmp_path / "tails.csv"
        assert main(["tails", "--kind", kind, "--out", str(out)]) in (0, 1)
        with out.open(newline="") as fh:
            kinds = [row["kind"] for row in csv.DictReader(fh)]
        assert list(dict.fromkeys(kinds)) == selected
        assert kinds == sorted(kinds, key=selected.index)  # each kind in one block

    def test_tails_unknown_kind_exits_2(self, tmp_path):
        res = run_cli("tails", "--kind", "bogus", "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 2 and "bogus" in res.stderr
        assert not (tmp_path / "t.csv").exists()

    def test_tails_unknown_kind_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = bogus\nout = %s\n" % (tmp_path / "t.csv"))
        assert main(["tails", "--config", str(cfg)]) == 2
        assert "'kind'" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_tails_geomsum_reports_violations(self, tmp_path):
        # the geometric-sum closed form genuinely fails in the heavy corner;
        # the certificate must say so and exit nonzero
        out = tmp_path / "cert.csv"
        assert main(["tails", "--kind", "geomsum", "--out", str(out)]) == 1
        body = out.read_text()
        assert ",False" in body and ",True" in body


class TestReproducibility:
    def test_same_seed_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            main(["estimate", "--n", "20", "--k", "2", "--order", "strict",
                  "--reps", "10", "--seed", "11", "--out-dir", str(d)])
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "plot.csv").read_bytes() == (d2 / "plot.csv").read_bytes()

    def test_manifest_replay_reproduces(self, tmp_path):
        d = tmp_path / "run"
        main(["estimate", "--n", "15", "--k", "2", "--order", "weak",
              "--reps", "8", "--seed", "13", "--out-dir", str(d)])
        first = (d / "report.json").read_bytes()
        assert main(["--manifest", str(d / "manifest.json")]) == 0
        assert (d / "report.json").read_bytes() == first

    def test_manifest_written_before_results(self, tmp_path):
        d = tmp_path / "m"
        main(["simulate", "--x", "2", "--t", "5", "--lambda", "1",
              "--seed", "2", "--out-dir", str(d)])
        man = json.loads((d / "manifest.json").read_text())
        assert man["command"] == "simulate"
        assert man["finished"] is not None
        assert str(d / "counts.csv") in man["output_paths"]

    def test_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        big = str(2**64)
        assert main(["sample", "--n", "2", "--k", "2", "--count", "1",
                     "--seed", big]) == 2
        assert "below 2**64" in capsys.readouterr().err
        assert main(["estimate", "--mode", "poisson", "--x", "1", "--t", "4",
                     "--lambda", "1", "--reps", "4", "--seed", big,
                     "--out-dir", str(tmp_path / "e")]) == 2
        assert "below 2**64" in capsys.readouterr().err

    def test_env_seed_default(self, tmp_path):
        res1 = run_cli("sample", "--n", "3", "--k", "1", "--count", "2",
                       env_extra={"ULAM_SEED": "77"})
        res2 = run_cli("sample", "--n", "3", "--k", "1", "--count", "2",
                       "--seed", "77")
        assert res1.stdout == res2.stdout

    def test_env_seed_read_only_where_a_seed_is_drawn(self, tmp_path):
        res = run_cli("lis", "--word", "1,2", env_extra={"ULAM_SEED": "abc"})
        assert (res.returncode, res.stdout) == (0, "2\n")
        res = run_cli("sample", "--n", "2", "--k", "1", "--count", "1",
                      env_extra={"ULAM_SEED": "abc"})
        assert res.returncode == 2 and "ULAM_SEED" in res.stderr

    @pytest.mark.parametrize("command", ["lis", "tails"])
    def test_seed_only_on_seeded_commands(self, tmp_path, command):
        argv = ["--word", "1,2"] if command == "lis" else ["--out", str(tmp_path / "t.csv")]
        res = run_cli(command, *argv, "--seed", "5")
        assert res.returncode == 2 and "unrecognized arguments" in res.stderr
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("text, key", [
        ("n = 2\nn = 3\nk = 1\nreps = 2\n", "n"),
        ("mode = poisson\nx = 1\nt = 2\nlambda = 1\nlam = 2\nreps = 2\n", "lam"),
        ("n = 2\nk = 1\nreps = 2\nout-dir = {d}/a\nout_dir = {d}/b\n", "out_dir"),
    ], ids=["same-key", "option-and-destination", "dash-and-underscore"])
    def test_config_key_set_twice_exits_2(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.format(d=tmp_path))
        assert main(["estimate", "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not any(p.is_dir() for p in tmp_path.iterdir())

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("word = 2,2,1,1\norder = weak\n")
        assert main(["lis", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "2"
        assert main(["lis", "--config", str(cfg), "--order", "strict"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sed = 3\n")
        assert main(["sample", "--n", "2", "--k", "1", "--count", "1",
                     "--config", str(cfg), "--out", str(tmp_path / "w.csv")]) == 2
        assert "'sed'" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()
        # an option of another subcommand is not one of this one
        cfg.write_text("reps = 3\n")
        assert main(["lis", "--word", "1,2", "--config", str(cfg)]) == 2
        assert "'reps'" in capsys.readouterr().err

    def test_config_keys_by_option_name(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x = 2\nt = 5\nlambda = 1.5\nout-dir = %s\n" % (tmp_path / "s"))
        assert main(["simulate", "--config", str(cfg), "--seed", "4"]) == 0
        man = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert man["parameters"]["lam"] == 1.5 and man["seed"] == 4

    @pytest.mark.parametrize("command, text, key", [
        ("estimate", "n = 10\nk = 2\nreps = 1e1\n", "reps"),
        ("simulate", "x = 2\nt = 3.5\nlambda = 1\n", "t"),
        ("simulate", "x = 2\nt = 3\nlambda = 1\nvariant = lax\n", "variant"),
        ("simulate", "x = 2\nt = 3\nlambda = 1\ntrace = yes\n", "trace"),
        ("simulate", "# a comment\n\nx = 2\nt = 3\nlambda = 1\ntrace\n", "trace"),
    ])
    def test_config_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, command,
                                                    text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "out-dir = %s\n" % (tmp_path / "o"))
        assert main([command, "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_values_equal_the_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = poisson\nx = 2\nt = 5\nlambda = 1\nreps = 6\n"
                       "out-dir = %s\n" % (tmp_path / "c"))
        assert main(["estimate", "--config", str(cfg)]) == 0
        assert main(["estimate", "--mode", "poisson", "--x", "2", "--t", "5",
                     "--lambda", "1", "--reps", "6", "--out-dir", str(tmp_path / "f")]) == 0
        assert ((tmp_path / "c" / "report.json").read_bytes()
                == (tmp_path / "f" / "report.json").read_bytes())

    @pytest.mark.parametrize("trace", [0, 1])
    def test_config_trace_flag(self, tmp_path, trace):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"x = 2\nt = 5\nlambda = 1\ntrace = {trace}\n"
                       f"out-dir = {tmp_path / 'c'}\n")
        assert main(["simulate", "--config", str(cfg)]) == 0
        flags = ["--trace"] if trace else []
        assert main(["simulate", "--x", "2", "--t", "5", "--lambda", "1", *flags,
                     "--out-dir", str(tmp_path / "f")]) == 0
        for name in ("counts.csv", "trace.csv"):
            made = [(tmp_path / d / name).exists() for d in "cf"]
            assert made == [name == "counts.csv" or bool(trace)] * 2
            if made[0]:
                assert ((tmp_path / "c" / name).read_bytes()
                        == (tmp_path / "f" / name).read_bytes())

    def test_jobs_only_on_estimate(self, capsys):
        for argv in (["verify", "--jobs", "2"], ["tails", "--grid", "default"]):
            res = run_cli(*argv)
            assert res.returncode == 2 and "unrecognized arguments" in res.stderr

    def test_jobs_flag_result_invariant(self, tmp_path):
        d1, d2 = tmp_path / "j1", tmp_path / "j8"
        for d, jobs in ((d1, "1"), (d2, "8")):
            main(["estimate", "--n", "12", "--k", "2", "--order", "strict",
                  "--reps", "16", "--seed", "21", "--jobs", jobs,
                  "--out-dir", str(d)])
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


class TestUnusableFiles:
    """A missing or unreadable file exits 2 with a message naming it."""

    def test_missing_config(self, tmp_path, capsys):
        path = str(tmp_path / "nofile.cfg")
        assert main(["lis", "--word", "1,2", "--config", path]) == 2
        assert path in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        path = str(tmp_path / "nofile.csv")
        assert main(["lis", "--input", path]) == 2
        assert path in capsys.readouterr().err

    def test_input_is_a_directory(self, tmp_path, capsys):
        assert main(["lis", "--input", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path, capsys):
        path = str(tmp_path / "manifest.json")
        assert main(["--manifest", path]) == 2
        assert path in capsys.readouterr().err


class TestManifestReplay:
    """A manifest that is not one exits 2 with a message naming what is wrong;
    a recorded one replays byte for byte."""

    @pytest.mark.parametrize("text, named", [
        ("{}", "'command'"),
        ("[1, 2]", "list"),
        ('{"command": "estimate"}', "'parameters'"),
        ('{"command": "estimate", "parameters": []}', "'parameters'"),
        ('{"command": 3, "parameters": {}}', "'command'"),
        ('{"command": "frobnicate", "parameters": {}}', "unknown command 'frobnicate'"),
    ])
    def test_not_a_manifest_exits_2(self, tmp_path, capsys, text, named):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        assert main(["--manifest", str(path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n", "5"), ("reps", True), ("reps", 4.0), ("order", "lax"),
        ("seed", None), ("out_dir", 3), ("func", "cmd_lis"),
    ])
    def test_bad_parameter_exits_2(self, tmp_path, capsys, key, value):
        d = tmp_path / "run"
        assert main(["estimate", "--n", "5", "--k", "2", "--reps", "4",
                     "--out-dir", str(d)]) == 0
        man = json.loads((d / "manifest.json").read_text())
        man["parameters"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(man))
        (d / "report.json").unlink()
        assert main(["--manifest", str(path)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (d / "report.json").exists()

    def test_flag_recorded_as_two_exits_2(self, tmp_path, capsys):
        d = tmp_path / "s"
        assert main(["simulate", "--x", "2", "--t", "3", "--lambda", "1",
                     "--out-dir", str(d)]) == 0
        man = json.loads((d / "manifest.json").read_text())
        man["parameters"]["trace"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(man))
        (d / "counts.csv").unlink()
        assert main(["--manifest", str(path)]) == 2
        assert "'trace' must be true, false, 0 or 1, got 2" in capsys.readouterr().err
        assert not (d / "counts.csv").exists()

    def test_simulate_with_derived_rate_replays(self, tmp_path):
        d = tmp_path / "s"
        assert main(["simulate", "--x", "3", "--t", "6", "--lambda", "1", "--alpha", "0.5",
                     "--trace", "--seed", "5", "--out-dir", str(d)]) == 0
        first = [(d / n).read_bytes() for n in ("counts.csv", "trace.csv")]
        assert "sink_param" in json.loads((d / "manifest.json").read_text())["parameters"]
        assert main(["--manifest", str(d / "manifest.json")]) == 0
        assert [(d / n).read_bytes() for n in ("counts.csv", "trace.csv")] == first

    def test_tails_manifest_with_a_recorded_seed_replays(self, tmp_path):
        out = tmp_path / "t" / "tails.csv"
        assert main(["tails", "--kind", "binomial", "--out", str(out)]) == 0
        first = out.read_bytes()
        path = out.parent / "manifest.json"
        man = json.loads(path.read_text())
        man["parameters"]["seed"] = 0  # recorded while tails took --seed
        path.write_text(json.dumps(man))
        out.unlink()
        assert main(["--manifest", str(path)]) == 0
        assert out.read_bytes() == first


def test_infinite_point_exits_2(capsys):
    assert main(["lis", "--word", "inf,1"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ([], "usage: ulam"), (["--manifest", "a", "b"], "--manifest takes exactly one"),
], ids=["no-command", "two-manifests"])
def test_no_command_exits_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
