import csv
import json

import pytest

from tcmicro import aggregate, cli, emd, mdav_partition, minmax_params
from tcmicro.cli import main
from tcmicro.dataset import load_csv
from tcmicro.cli import read_roles


@pytest.fixture
def synth_files(tmp_path):
    data = tmp_path / "data.csv"
    roles = tmp_path / "roles.cfg"
    rc = main([
        "synth", "--n", "1080", "--qi-count", "2", "--rho", "0.52", "--seed", "23",
        "--output", str(data), "--roles-out", str(roles),
    ])
    assert rc == 0
    return data, roles


def test_synth_writes_data_and_roles(tmp_path, capsys):
    data = tmp_path / "mcd.csv"
    roles = tmp_path / "roles.cfg"
    rc = main([
        "synth", "--n", "300", "--rho", "0.52", "--seed", "1",
        "--output", str(data), "--roles-out", str(roles),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "achieved correlation: 0.52" in out
    specs = read_roles(roles)
    table = load_csv(data, specs)
    assert table.n == 300


def test_synth_low_correlation_wide_surrogate(tmp_path, capsys):
    # hospital-discharge-like shape: many QIs, weak link to the charge column
    data = tmp_path / "pd.csv"
    rc = main([
        "synth", "--n", "4000", "--qi-count", "7", "--rho", "0.129", "--seed", "2",
        "--output", str(data),
    ])
    assert rc == 0
    assert "achieved correlation: 0.129" in capsys.readouterr().out


def test_anonymize_tfirst_reproduces_balanced_sizes(tmp_path, synth_files):
    data, roles = synth_files
    out = tmp_path / "anon.csv"
    report_path = tmp_path / "report.json"
    rc = main([
        "anonymize", "--input", str(data), "--roles", str(roles),
        "--algorithm", "tfirst", "--k", "2", "--t", "0.05",
        "--output", str(out), "--report", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["k_min_actual"] == 10
    assert report["k_avg_actual"] == 10
    assert report["algorithm"] == "tfirst"
    assert report["max_cluster_emd"] <= 0.05


def test_anonymize_merge_vacuous_t_equals_mdav(tmp_path, synth_files):
    data, roles = synth_files
    out = tmp_path / "anon.csv"
    report_path = tmp_path / "report.json"
    rc = main([
        "anonymize", "--input", str(data), "--roles", str(roles),
        "--algorithm", "merge", "--k", "5", "--t", "1.0",
        "--output", str(out), "--report", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    table = load_csv(data, read_roles(roles))
    plain = mdav_partition(table, minmax_params(table), 5)
    sizes = plain.sizes()
    assert report["k_min_actual"] == min(sizes)
    assert report["k_avg_actual"] == sum(sizes) / len(sizes)


def test_anonymize_refuses_release_that_fails_verify(tmp_path, synth_files, capsys, monkeypatch):
    # MDAV without the merge pass: k-anonymous, but some classes are not 0.1-close
    def mdav_only(table, k, tau, seed=None):
        partition = mdav_partition(table, minmax_params(table), k)
        return aggregate(table, partition), partition, None

    monkeypatch.setitem(cli.ALGORITHMS, "merge", mdav_only)
    data, roles = synth_files
    out = tmp_path / "anon.csv"
    rc = main([
        "anonymize", "--input", str(data), "--roles", str(roles),
        "--algorithm", "merge", "--k", "2", "--t", "0.1", "--output", str(out),
    ])
    assert rc == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refusing to write output" in captured.err
    assert "t-closeness (t=0.1): FAIL (cluster" in captured.err
    assert "k-anonymity" not in captured.err and "confidential" not in captured.err


def test_invalid_k_names_parameter(tmp_path, synth_files, capsys):
    data, roles = synth_files
    rc = main([
        "anonymize", "--input", str(data), "--roles", str(roles),
        "--algorithm", "merge", "--k", "1", "--t", "0.1",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "--k" in capsys.readouterr().err


def test_missing_input_is_io_error(tmp_path, synth_files):
    _, roles = synth_files
    rc = main([
        "anonymize", "--input", str(tmp_path / "nope.csv"), "--roles", str(roles),
        "--algorithm", "merge", "--k", "2", "--t", "0.1",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert rc == 3


def test_anonymize_rejects_repeated_header_column(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,a,b\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
    roles = tmp_path / "roles.cfg"
    roles.write_text("a=qi\nb=confidential\n", encoding="utf-8")
    out = tmp_path / "anon.csv"
    rc = main([
        "anonymize", "--input", str(data), "--roles", str(roles),
        "--algorithm", "merge", "--k", "2", "--t", "1", "--output", str(out),
    ])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: duplicate column 'a' in file header\n"


def test_verify_empty_release_is_usage_error(tmp_path, synth_files, capsys):
    data, roles = synth_files
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc = main([
        "verify", "--input", str(data), "--anonymized", str(empty),
        "--roles", str(roles), "--k", "2", "--t", "0.1",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "file is empty" in err


@pytest.mark.parametrize("command", ["anonymize", "verify"])
def test_cell_over_field_limit_is_usage_error(tmp_path, capsys, command):
    # one cell a character longer than csv's default field limit of 131,072
    long_cell = "1" + "0" * 131072
    roles = tmp_path / "roles.cfg"
    roles.write_text("a=qi\nb=confidential\n", encoding="utf-8")
    data = tmp_path / "data.csv"
    release = tmp_path / "anon.csv"
    if command == "anonymize":
        data.write_text(f"a,b\n1,2\n{long_cell},4\n5,6\n", encoding="utf-8")
        argv = ["anonymize", "--algorithm", "merge", "--output", str(release)]
    else:
        data.write_text("a,b\n1,2\n3,4\n5,6\n", encoding="utf-8")
        release.write_text(f"a,b,cluster_id\n3,2,0\n{long_cell},4,0\n3,6,0\n", encoding="utf-8")
        argv = ["verify", "--anonymized", str(release)]
    rc = main(argv + ["--input", str(data), "--roles", str(roles), "--k", "2", "--t", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: field larger than field limit (131072)\n"
    assert "Traceback" not in err


def test_table_beyond_the_exact_emd_range_is_usage_error(tmp_path, capsys, monkeypatch):
    # the exact EMD needs n * n * m < 2**63, which takes about two million
    # distinct records to break; a lowered limit stands in for such a table
    monkeypatch.setattr(emd, "_INT64_RANGE", 3**3)
    roles = tmp_path / "roles.cfg"
    roles.write_text("a=qi\nb=confidential\n", encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("a,b\n1,2\n3,4\n5,6\n", encoding="utf-8")
    rc = main([
        "anonymize", "--input", str(data), "--roles", str(roles), "--algorithm", "merge",
        "--k", "2", "--t", "1", "--output", str(tmp_path / "anon.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: table too large for the exact EMD: n=3 records over m=3 distinct "
        "confidential values need n * n * m < 2**63\n"
    )
    assert not (tmp_path / "anon.csv").exists()


@pytest.mark.parametrize("algorithm", sorted(cli.ALGORITHMS))
def test_centroids_near_float_max_are_published(tmp_path, capsys, algorithm):
    # a valid table whose QI holds 1.0e308..1.5e308: a float sum of two of
    # its cells overflows, the exact class mean does not
    roles = tmp_path / "roles.cfg"
    roles.write_text("a=qi\nc=confidential\n", encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("a,c\n" + "".join(f"1.{i % 6}e308,{i}\n" for i in range(12)), encoding="utf-8")
    files = ["--input", str(data), "--roles", str(roles), "--k", "2", "--t", "0.5"]
    release = tmp_path / "anon.csv"
    assert main(["anonymize", "--algorithm", algorithm, "--output", str(release), *files]) == 0
    assert main(["verify", "--anonymized", str(release), *files]) == 0
    assert "error" not in capsys.readouterr().err


class TestVerify:
    @pytest.fixture
    def release(self, tmp_path, synth_files):
        data, roles = synth_files
        out = tmp_path / "anon.csv"
        rc = main([
            "anonymize", "--input", str(data), "--roles", str(roles),
            "--algorithm", "kfirst", "--k", "2", "--t", "0.1",
            "--output", str(out),
        ])
        assert rc == 0
        return data, roles, out

    def test_clean_release_passes(self, release, capsys):
        data, roles, out = release
        rc = main([
            "verify", "--input", str(data), "--anonymized", str(out),
            "--roles", str(roles), "--k", "2", "--t", "0.1",
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert captured.count("PASS") == 3

    def test_tampered_cell_fails_k_anonymity(self, release, capsys, tmp_path):
        data, roles, out = release
        lines = out.read_text().splitlines()
        cells = lines[1].split(",")
        cells[0] = "999999.125"  # unique QI combination
        lines[1] = ",".join(cells)
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(lines) + "\n")
        rc = main([
            "verify", "--input", str(data), "--anonymized", str(tampered),
            "--roles", str(roles), "--k", "2", "--t", "0.1",
        ])
        assert rc == 2
        assert "k-anonymity (k=2): FAIL" in capsys.readouterr().out

    def test_lowered_t_fails_with_worst_cluster(self, release, capsys):
        data, roles, out = release
        rc = main([
            "verify", "--input", str(data), "--anonymized", str(out),
            "--roles", str(roles), "--k", "2", "--t", "0.00001",
        ])
        assert rc == 2
        captured = capsys.readouterr().out
        assert "t-closeness" in captured and "FAIL" in captured and "cluster" in captured


def test_t_closeness_failure_names_the_cluster_id(tmp_path, synth_files, capsys):
    # a merge release with its ids renumbered to 10 * id + 7: the failing
    # class must be named by an id the release holds, not by its position
    data, roles = synth_files
    out = tmp_path / "anon.csv"
    assert main([
        "anonymize", "--input", str(data), "--roles", str(roles),
        "--algorithm", "merge", "--k", "2", "--t", "0.1", "--output", str(out),
    ]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    ids = {int(row[-1]) for row in rows}
    assert ids == set(range(len(ids)))
    for row in rows:
        row[-1] = str(10 * int(row[-1]) + 7)
    renumbered = tmp_path / "renumbered.csv"
    with open(renumbered, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])

    def failing_cluster(release):
        capsys.readouterr()
        assert main([
            "verify", "--input", str(data), "--anonymized", str(release),
            "--roles", str(roles), "--k", "2", "--t", "0.05",
        ]) == 2
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("t-closeness"))
        return int(line.split("FAIL (cluster ")[1].split()[0])

    assert failing_cluster(renumbered) == 10 * failing_cluster(out) + 7


def _constant_confidential(header, rows):
    col = header.index("conf")
    for row in rows:
        row[col] = "12345.5"
    return header, rows


def _drop_qi1(header, rows):
    col = header.index("qi1")
    return header[:col] + header[col + 1:], [row[:col] + row[col + 1:] for row in rows]


def _qi2_renamed_qi1(header, rows):
    return ["qi1" if name == "qi2" else name for name in header], rows


@pytest.mark.parametrize("tamper, code, message", [
    (_constant_confidential, 2, "confidential column: FAIL (first differing row 1:"),
    (_drop_qi1, 1, "declared columns missing from file: ['qi1']"),
    (_qi2_renamed_qi1, 1, "duplicate column 'qi1' in file header"),
], ids=["constant-confidential", "missing-qi1", "duplicate-qi1"])
def test_verify_rejects_tampered_tfirst_release(
    tmp_path, synth_files, capsys, tamper, code, message
):
    data, roles = synth_files
    out = tmp_path / "anon.csv"
    assert main([
        "anonymize", "--input", str(data), "--roles", str(roles),
        "--algorithm", "tfirst", "--k", "2", "--t", "0.1", "--output", str(out),
    ]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    header, rows = tamper(header, rows)
    tampered = tmp_path / "tampered.csv"
    with open(tampered, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    capsys.readouterr()
    rc = main([
        "verify", "--input", str(data), "--anonymized", str(tampered),
        "--roles", str(roles), "--k", "2", "--t", "0.1",
    ])
    assert rc == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


def test_bench_grid_records_failures_per_cell(tmp_path, capsys):
    data = tmp_path / "small.csv"
    roles = tmp_path / "roles.cfg"
    assert main([
        "synth", "--n", "120", "--rho", "0.3", "--seed", "5",
        "--output", str(data), "--roles-out", str(roles),
    ]) == 0
    report = tmp_path / "bench.csv"
    rc = main([
        "bench", "--input", str(data), "--roles", str(roles),
        "--grid-k", "2,200", "--grid-t", "0.1,0.25",
        "--algorithms", "merge,tfirst", "--report", str(report),
    ])
    assert rc == 0
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    ok = [r for r in rows if r["status"] == "ok"]
    failed = [r for r in rows if r["status"] == "error"]
    assert len(ok) == 4 and len(failed) == 4  # k=200 > n in every algorithm
    assert all(r["error"] for r in failed)
    assert all(float(r["runtime_ms"]) >= 0 for r in ok)


@pytest.mark.parametrize("algorithms", ["", " , "])
def test_bench_empty_algorithm_list_is_usage_error(tmp_path, capsys, algorithms):
    data = tmp_path / "small.csv"
    roles = tmp_path / "roles.cfg"
    assert main(["synth", "--n", "30", "--rho", "0.3", "--seed", "5",
                 "--output", str(data), "--roles-out", str(roles)]) == 0
    report = tmp_path / "bench.csv"
    rc = main(["bench", "--input", str(data), "--roles", str(roles),
               "--grid-k", "2", "--grid-t", "0.2", "--algorithms", algorithms,
               "--report", str(report)])
    assert rc == 1
    assert "--algorithms" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flag, grid", [("--grid-k", "2,x"), ("--grid-t", "0.1,y")])
def test_bench_malformed_grid_entry_names_the_flag(tmp_path, capsys, flag, grid):
    data = tmp_path / "small.csv"
    roles = tmp_path / "roles.cfg"
    assert main(["synth", "--n", "30", "--rho", "0.3", "--seed", "5",
                 "--output", str(data), "--roles-out", str(roles)]) == 0
    report = tmp_path / "bench.csv"
    argv = {"--grid-k": "2", "--grid-t": "0.2", flag: grid}
    rc = main(["bench", "--input", str(data), "--roles", str(roles),
               "--grid-k", argv["--grid-k"], "--grid-t", argv["--grid-t"],
               "--report", str(report)])
    assert rc == 1
    bad = grid.split(",")[1]
    assert f"invalid {flag} entry '{bad}'" in capsys.readouterr().err
    assert not report.exists()


def test_bench_report_is_deterministic(tmp_path):
    data = tmp_path / "small.csv"
    roles = tmp_path / "roles.cfg"
    main(["synth", "--n", "90", "--rho", "0.4", "--seed", "8",
          "--output", str(data), "--roles-out", str(roles)])
    reports = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        main(["bench", "--input", str(data), "--roles", str(roles),
              "--grid-k", "2,3", "--grid-t", "0.15", "--algorithms", "tfirst",
              "--report", str(path)])
        with open(path) as fh:
            rows = [{k: v for k, v in row.items() if k != "runtime_ms"}
                    for row in csv.DictReader(fh)]
        reports.append(rows)
    assert reports[0] == reports[1]


def test_bench_columns_are_the_run_report_fields(tmp_path):
    data = tmp_path / "small.csv"
    roles = tmp_path / "roles.cfg"
    main(["synth", "--n", "60", "--rho", "0.4", "--seed", "3",
          "--output", str(data), "--roles-out", str(roles)])
    report_json = tmp_path / "run.json"
    assert main(["anonymize", "--input", str(data), "--roles", str(roles),
                 "--algorithm", "tfirst", "--k", "3", "--t", "0.2", "--seed", "4",
                 "--output", str(tmp_path / "anon.csv"), "--report", str(report_json)]) == 0
    bench = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(data), "--roles", str(roles),
                 "--grid-k", "3,100", "--grid-t", "0.2", "--algorithms", "tfirst",
                 "--seed", "4", "--report", str(bench)]) == 0
    report = json.loads(report_json.read_text())
    with open(bench, newline="") as fh:
        reader = csv.DictReader(fh)
        ok, failed = list(reader)
    assert reader.fieldnames == list(report) + ["status", "error"]
    assert ok["status"] == "ok" and ok["error"] == ""
    for key in ("n", "k_min_actual", "sse_attr_count"):
        assert int(ok[key]) == report[key]
    assert float(ok["sse"]) == report["sse"]
    assert failed["status"] == "error" and failed["error"]
    assert failed["k_requested"] == "100" and failed["seed"] == "4"
    assert failed["k_min_actual"] == failed["sse"] == failed["sse_attr_count"] == ""
