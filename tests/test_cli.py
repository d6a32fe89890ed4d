import subprocess
import sys

import pytest

from epart.cli import main
from epart.partition.emit import INTERFACE_FILE, TRUSTED_IMG, UNTRUSTED_IMG

DIVERGENT_SRC = """
@Neutral
class Box {
    v: Int;
    Box() { this.v = 1; }
    add(n: Int) { this.v = this.v + n; }
    get() -> Int { return this.v; }
}
@Trusted
class Vault {
    Vault() { }
    bump(b: Box) { b.add(10); }
}
@Untrusted
class Main {
    static main() {
        var b: Box = new Box();
        var t: Vault = new Vault();
        t.bump(b);
        print(b.get());
    }
}
"""


@pytest.fixture
def bank_dir(bank_source, tmp_path):
    src = tmp_path / "bank.ep"
    src.write_text(bank_source)
    plan = tmp_path / "plan"
    assert main(["partition", str(src), "-o", str(plan)]) == 0
    return src, plan


class TestPartitionCommand:
    def test_writes_plan(self, bank_dir, capsys):
        _, plan = bank_dir
        for name in (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE):
            assert (plan / name).is_file()

    def test_summary_output(self, bank_source, tmp_path, capsys):
        src = tmp_path / "bank.ep"
        src.write_text(bank_source)
        assert main(["partition", str(src), "-o", str(tmp_path / "p")]) == 0
        out = capsys.readouterr().out
        assert "trusted     2 classes: Account, AccountRegistry" in out
        assert "untrusted   2 classes: Person, Main" in out
        assert "neutral     0 classes: -" in out
        assert f"wrote {TRUSTED_IMG}, {UNTRUSTED_IMG}, {INTERFACE_FILE}" in out

    def test_missing_source(self, tmp_path, capsys):
        assert main(["partition", str(tmp_path / "no.ep"),
                     "-o", str(tmp_path / "p")]) == 1
        assert "no.ep" in capsys.readouterr().err

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.ep"
        src.write_text("""
@Trusted
class Main {
    Main() { }
    static main() { }
}
""")
        assert main(["partition", str(src), "-o", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert "MAIN_PLACEMENT" in err
        assert "violation" in err

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        src = tmp_path / "bad.ep"
        src.write_text("class {")
        assert main(["partition", str(src), "-o", str(tmp_path / "p")]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_deterministic_output(self, bank_source, tmp_path):
        src = tmp_path / "bank.ep"
        src.write_text(bank_source)
        for d in ("a", "b"):
            assert main(["partition", str(src), "-o", str(tmp_path / d)]) == 0
        for name in (TRUSTED_IMG, UNTRUSTED_IMG, INTERFACE_FILE):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestRunCommand:
    def test_transcript_and_metrics(self, bank_dir, tmp_path, capsys):
        _, plan = bank_dir
        metrics = tmp_path / "m.txt"
        assert main(["run", str(plan), "--metrics", str(metrics)]) == 0
        text = metrics.read_text()
        assert "[trusted]" in text and "[untrusted]" in text
        assert "ecalls = 6" in text
        assert "total_simulated_cycles = 79287" in text

    def test_trace_goes_to_stderr(self, bank_dir, capsys):
        _, plan = bank_dir
        assert main(["run", str(plan), "--trace", "transitions"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("1 ECALL ctor Account.Account")

    def test_dump_fs(self, tmp_path, capsys):
        src = tmp_path / "w.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        file_write("/data/report.txt", "hi");
        print("ok");
    }
}
""")
        plan = tmp_path / "p"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        capsys.readouterr()
        fs = tmp_path / "fs"
        assert main(["run", str(plan), "--dump-fs", str(fs)]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert (fs / "data" / "report.txt").read_text() == "hi"

    def test_program_argv(self, tmp_path, capsys):
        src = tmp_path / "a.ep"
        src.write_text("""
@Untrusted
class Main {
    static main(args: List[Str]) {
        print(args.get(1));
    }
}
""")
        plan = tmp_path / "p"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        capsys.readouterr()
        assert main(["run", str(plan), "prog", "world"]) == 0
        assert capsys.readouterr().out == "world\n"

    def test_bad_gc_scan_flag(self, bank_dir, capsys):
        _, plan = bank_dir
        assert main(["run", str(plan), "--gc-scan", "sometimes"]) == 1
        assert "every-k" in capsys.readouterr().err

    def test_live_gc_is_an_alias(self, bank_dir, tmp_path, capsys):
        _, plan = bank_dir
        outputs = []
        for flags in ([], ["--live-gc"], ["--deterministic-gc"]):
            metrics = tmp_path / f"m{len(outputs)}.txt"
            capsys.readouterr()
            assert main(["run", str(plan), "--trace", "transitions",
                         "--metrics", str(metrics)] + flags) == 0
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err, metrics.read_text()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_missing_plan_dir(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope")]) == 1

    def test_tampered_image(self, bank_dir, capsys):
        _, plan = bank_dir
        img = plan / TRUSTED_IMG
        img.write_bytes(img.read_bytes()[:-6])
        assert main(["run", str(plan)]) == 1
        assert "bad plan" in capsys.readouterr().err

    def test_runtime_error_exits_1(self, tmp_path, capsys):
        src = tmp_path / "d.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        print("before");
        var z: Int = 0;
        print(1 / z);
    }
}
""")
        plan = tmp_path / "p"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        capsys.readouterr()
        assert main(["run", str(plan)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "before\n"  # partial transcript still emitted
        assert "runtime error: division by zero" in captured.err
        assert "at Main.main" in captured.err


class TestRunUnpartitioned:
    def test_matches_partitioned_transcript(self, bank_source, bank_dir,
                                            tmp_path, capsys):
        src, plan = bank_dir
        capsys.readouterr()
        assert main(["run", str(plan)]) == 0
        part_out = capsys.readouterr().out
        assert main(["run-unpartitioned", str(src)]) == 0
        assert capsys.readouterr().out == part_out

    def test_metrics_report_shims(self, tmp_path, capsys):
        src = tmp_path / "w.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        print("hello");
    }
}
""")
        metrics = tmp_path / "m.txt"
        assert main(["run-unpartitioned", str(src),
                     "--metrics", str(metrics)]) == 0
        assert capsys.readouterr().out == "hello\n"
        assert "shim_ocalls = 1" in metrics.read_text()

    def test_missing_read_faults_inside_the_shim(self, tmp_path, capsys):
        src = tmp_path / "r.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        var s: Str = file_read("/data/none.txt");
    }
}
""")
        assert main(["run-unpartitioned", str(src)]) == 1
        assert capsys.readouterr().err == (
            "runtime error: file_read of missing path: /data/none.txt\n"
            "  -- ocall boundary __host__.file_read --\n"
            "  at Main.main\n")


    def test_runtime_error_keeps_transcript(self, tmp_path, capsys):
        src = tmp_path / "d.ep"
        src.write_text("""
@Untrusted
class Main {
    static main() {
        print("before");
        var x: Int = 1 / 0;
    }
}
""")
        assert main(["run-unpartitioned", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "before\n"
        assert captured.err == ("runtime error: division by zero\n"
                                "  at Main.main\n")


class TestCompareCommand:
    def test_pass(self, bank_source, tmp_path, capsys):
        src = tmp_path / "bank.ep"
        src.write_text(bank_source)
        assert main(["compare", str(src)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS:")
        assert "ecalls=6 ocalls=0 shim_ocalls=0" in out

    def test_fail_on_divergent_plan(self, tmp_path, capsys):
        # partition a modified program, then compare the original source
        # against that stale plan: the transcripts differ
        src = tmp_path / "p.ep"
        src.write_text(DIVERGENT_SRC)
        plan = tmp_path / "plan"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        ref = tmp_path / "ref.ep"
        ref.write_text(DIVERGENT_SRC.replace("t.bump(b);", "b.add(10);"))
        capsys.readouterr()
        assert main(["compare", str(ref), "--plan", str(plan)]) == 1
        out = capsys.readouterr().out
        assert "FAIL: transcript line 0" in out
        assert "reference '11'" in out and "partitioned '1'" in out

    def test_copy_semantics_still_pass_by_themselves(self, tmp_path, capsys):
        # the divergent fixture is deterministic per mode, so a fresh
        # partition of the same source compares unequal by design
        src = tmp_path / "p.ep"
        src.write_text(DIVERGENT_SRC)
        assert main(["compare", str(src)]) == 1
        assert "FAIL: transcript line 0" in capsys.readouterr().out

    FAULT_SRC = """
@Untrusted
class Main {
    static main() {
        print("before");
        var x: Int = 1 / 0;
    }
}
"""

    def test_identical_faults_pass(self, tmp_path, capsys):
        src = tmp_path / "f.ep"
        src.write_text(self.FAULT_SRC)
        assert main(["compare", str(src)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "PASS: 1 transcript line(s) and 0 file(s) match",
            "both runs stop with: runtime error: division by zero",
            "ecalls=0 ocalls=0 shim_ocalls=0",
        ]

    def test_fault_on_one_side_fails(self, tmp_path, capsys):
        # the plan comes from a version of the program without the fault
        clean = tmp_path / "clean.ep"
        clean.write_text(self.FAULT_SRC.replace("1 / 0", "1 / 1"))
        plan = tmp_path / "plan"
        assert main(["partition", str(clean), "-o", str(plan)]) == 0
        src = tmp_path / "f.ep"
        src.write_text(self.FAULT_SRC)
        capsys.readouterr()
        assert main(["compare", str(src), "--plan", str(plan)]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "FAIL: reference stopped with 'runtime error: division by zero', "
            "partitioned completed\n")
        assert "Traceback" not in captured.err

    def test_bad_plan_rejected(self, bank_source, tmp_path, capsys):
        src = tmp_path / "bank.ep"
        src.write_text(bank_source)
        plan = tmp_path / "plan"
        assert main(["partition", str(src), "-o", str(plan)]) == 0
        iface = plan / INTERFACE_FILE
        iface.write_text(iface.read_text().replace("updateBalance", "update"))
        capsys.readouterr()
        assert main(["compare", str(src), "--plan", str(plan)]) == 1
        assert "bad plan" in capsys.readouterr().err


class TestBenchCommand:
    def test_stdout_csv(self, capsys):
        assert main(["bench", "--suite", "proxy_creation"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "metric,value"
        assert "proxy_in_out_cycles,13150" in out

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["bench", "--suite", "rmi", "--out", str(out)]) == 0
        assert "setter_local_in_cycles,8" in out.read_text()

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--suite", "warmup"])
        assert exc.value.code == 2


class TestInspectCommand:
    def test_trusted_image(self, bank_dir, capsys):
        _, plan = bank_dir
        capsys.readouterr()
        assert main(["inspect", str(plan), "trusted"]) == 0
        out = capsys.readouterr().out
        assert "Account [trusted]" in out
        assert "proxies (0):" in out
        assert "Person proxy: pruned (unreachable)" in out
        assert "Main proxy: pruned (unreachable)" in out
        assert "ecall Account.updateBalance(prim) -> unit" in out
        assert "interface descriptor (4 records):" in out

    def test_untrusted_image(self, bank_dir, capsys):
        _, plan = bank_dir
        capsys.readouterr()
        assert main(["inspect", str(plan), "untrusted"]) == 0
        out = capsys.readouterr().out
        assert "Person [untrusted]" in out
        assert "Account (ecall proxy, hash field, 2 stub(s))" in out
        assert "updateBalance(Int)" in out
        assert "addAccount(Account)" in out
        assert "entry points (1):" in out


class TestEntryPoint:
    def test_help_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "epart.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        for cmd in ("partition", "run", "run-unpartitioned",
                    "compare", "bench", "inspect"):
            assert cmd in proc.stdout

    def test_no_command_shows_usage(self, capsys):
        with pytest.raises(SystemExit):
            main([])
