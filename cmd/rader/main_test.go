package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exec drives the tool exactly as main does, capturing output.
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodeRaces(t *testing.T) {
	code, out, _ := exec(t, "-prog", "fig1", "-detector", "sp+", "-spec", "all")
	if code != exitRaces {
		t.Fatalf("racy run: exit %d, want %d\n%s", code, exitRaces, out)
	}
	if !strings.Contains(out, "race") {
		t.Fatalf("no race mentioned:\n%s", out)
	}
}

func TestExitCodeClean(t *testing.T) {
	code, out, _ := exec(t, "-prog", "fig1-fixed", "-detector", "sp+", "-spec", "all")
	if code != exitClean {
		t.Fatalf("clean run: exit %d, want %d\n%s", code, exitClean, out)
	}
}

func TestExitCodeCoverage(t *testing.T) {
	code, out, _ := exec(t, "-prog", "fig1-fixed", "-coverage")
	if code != exitClean {
		t.Fatalf("clean coverage: exit %d, want %d\n%s", code, exitClean, out)
	}
	if !strings.Contains(out, "no races under any specification") {
		t.Fatalf("coverage verdict missing:\n%s", out)
	}
	code, _, _ = exec(t, "-prog", "fig1", "-coverage")
	if code != exitRaces {
		t.Fatalf("racy coverage: exit %d, want %d", code, exitRaces)
	}
}

// pbfs keeps state between runs, so a coverage sweep must run a fresh
// instance per unit: the document is then complete and the same at any
// worker count.
func TestCoverageFreshInstancePerUnit(t *testing.T) {
	var docs []string
	for _, w := range []string{"1", "4"} {
		code, out, _ := exec(t, "-prog", "pbfs", "-scale", "test", "-coverage", "-json", "-sweep-workers", w)
		if code != exitRaces {
			t.Fatalf("pbfs coverage at %s workers: exit %d, want %d\n%.500s", w, code, exitRaces, out)
		}
		if strings.Contains(out, "diverged") {
			t.Fatalf("pbfs coverage at %s workers reports diverged probes:\n%.500s", w, out)
		}
		docs = append(docs, out)
	}
	if docs[0] != docs[1] {
		t.Fatal("pbfs coverage documents differ between 1 and 4 workers")
	}
}

func TestExitCodeUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{"-prog", "no-such-program"},
		{"-detector", "no-such-detector"},
		{"-spec", "gibberish:::"},
		{"-scale", "enormous"},
	}
	for _, args := range cases {
		if code, _, _ := exec(t, args...); code != exitError {
			t.Errorf("%v: exit %d, want %d", args, code, exitError)
		}
	}
}

func TestRecordReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	code, out, errOut := exec(t, "-prog", "fig1", "-spec", "all", "-record", path)
	if code != exitClean {
		t.Fatalf("record: exit %d\n%s%s", code, out, errOut)
	}
	code, out, _ = exec(t, "-replay", path, "-detector", "sp+")
	if code != exitRaces {
		t.Fatalf("replay of racy trace: exit %d, want %d\n%s", code, exitRaces, out)
	}
	if !strings.Contains(out, "replayed ") {
		t.Fatalf("replay banner missing:\n%s", out)
	}
}

func TestReplayTruncatedTraceFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	if code, _, _ := exec(t, "-prog", "fig1", "-spec", "all", "-record", path); code != exitClean {
		t.Fatal("record failed")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.trace")
	if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := exec(t, "-replay", cut, "-detector", "sp+")
	if code != exitError {
		t.Fatalf("truncated replay: exit %d, want %d", code, exitError)
	}
	if !strings.Contains(errOut, "truncated") {
		t.Fatalf("error does not name the truncation: %s", errOut)
	}
}

func TestTimeoutFlagAborts(t *testing.T) {
	code, _, errOut := exec(t, "-prog", "fig1", "-spec", "all", "-timeout", "1ns")
	if code != exitError {
		t.Fatalf("expired run: exit %d, want %d\n%s", code, exitError, errOut)
	}
	if !strings.Contains(errOut, "deadline") {
		t.Fatalf("error does not name the deadline: %s", errOut)
	}
	if code, _, _ := exec(t, "-prog", "fig1-fixed", "-spec", "all", "-timeout", "1m"); code != exitClean {
		t.Fatalf("generous timeout: exit %d, want %d", code, exitClean)
	}
}
