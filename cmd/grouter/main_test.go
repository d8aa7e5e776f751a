package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro"
)

// TestResumeConvergedJournal negotiates a congested layout to zero overflow
// with -checkpoint, then reruns it with -resume over the same journal: the
// recovered session is routed and converged, so the rerun must negotiate
// nothing, report the recovered routes and exit 0, and its wires must match
// the first run's.
func TestResumeConvergedJournal(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "grouter")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	l, err := genroute.MacroGrid(8, 8, 40, 30, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	input := filepath.Join(dir, "chip.json")
	f, err := os.Create(input)
	if err != nil {
		t.Fatal(err)
	}
	if err := genroute.WriteLayout(f, l); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	args := []string{"-input", input, "-congestion", "-pitch", "8", "-weight", "40", "-weightstep", "40",
		"-history", "1", "-historyweight", "10", "-passes", "12", "-workers", "1",
		"-checkpoint", filepath.Join(dir, "run.jrnl"), "-wires"}
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("grouter %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	first := run(args...)
	passLine := regexp.MustCompile(`(?m)^pass \d+:`)
	if n := len(passLine.FindAllString(first, -1)); n < 2 || !strings.Contains(first, "converged: zero overflow") {
		t.Fatalf("first run negotiated %d passes without converging; the scene must congest and drain:\n%s", n, first)
	}
	resumed := run(append(args, "-resume")...)
	if passLine.MatchString(resumed) {
		t.Fatalf("resumed run renegotiated a converged journal:\n%s", resumed)
	}
	if !strings.Contains(resumed, "recovered converged routes") {
		t.Fatalf("resumed run did not report the recovered routes:\n%s", resumed)
	}
	if got, want := wires(resumed), wires(first); got != want || want == "" {
		t.Fatalf("resumed wires differ from the negotiated run's:\n got %s\nwant %s", got, want)
	}
}

// wires returns the -wires section of a grouter report.
func wires(out string) string {
	if i := strings.Index(out, "\nnet "); i >= 0 {
		return out[i+1:]
	}
	return ""
}
