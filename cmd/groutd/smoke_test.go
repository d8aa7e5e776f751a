package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro"
)

// BenchmarkDaemonSmoke is the CI smoke for the real binary: build groutd,
// serve a 32×32 macro session under concurrent routes, SIGTERM mid-flight
// — the readiness flip is observable in the grace window while liveness
// stays green, the in-flight negotiation completes, and the process drains
// to exit 0 — then restart over the same persistence directory and verify
// every session warm-starts from its journal. Two 64×64 sessions measure
// the warm start. One is routed once (a one-pass /negotiate) before the
// restart: routed-warm-vs-cold-pct is its warm create against its cold
// create plus that route, the work a warm start saves, and CI gates it
// with `benchreport -require '...:routed-warm-vs-cold-pct<=10'`. The other
// stays unrouted: warm-vs-cold-pct is its warm create against its cold
// one, reported only, since both pay about the same index build.
//
// Run as: go test -run=NONE -bench=DaemonSmoke -benchtime=1x ./cmd/groutd
func BenchmarkDaemonSmoke(b *testing.B) {
	if testing.Short() {
		b.Skip("daemon smoke builds and runs the binary")
	}
	dir := b.TempDir()
	bin := filepath.Join(dir, "groutd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		b.Fatalf("building groutd: %v\n%s", err, out)
	}
	snapdir := filepath.Join(dir, "snapshots")

	l, err := genroute.MacroGrid(32, 32, 40, 30, 12, 10)
	if err != nil {
		b.Fatal(err)
	}
	var layoutJSON bytes.Buffer
	if err := genroute.WriteLayout(&layoutJSON, l); err != nil {
		b.Fatal(err)
	}
	var bigJSON [2]bytes.Buffer // unrouted, routed
	for k := range bigJSON {
		big, err := genroute.MacroGrid(64, 64, 40, 30, 12, int64(10+k))
		if err != nil {
			b.Fatal(err)
		}
		if err := genroute.WriteLayout(&bigJSON[k], big); err != nil {
			b.Fatal(err)
		}
	}

	for i := 0; i < b.N; i++ {
		runDaemonSmoke(b, bin, snapdir, l, layoutJSON.Bytes(), bigJSON[0].Bytes(), bigJSON[1].Bytes())
	}
}

func runDaemonSmoke(b *testing.B, bin, snapdir string, l *genroute.Layout, layoutJSON, bigJSON, routedJSON []byte) {
	os.RemoveAll(snapdir)

	// Cold daemon: prepare the three sessions, route one 64×64 session once,
	// and serve concurrent routes.
	d := startDaemon(b, bin, snapdir)
	cold := smokeCreateSession(b, d, layoutJSON, "pitch=8&weight=40&passes=2")
	if cold.Warm || !cold.Created {
		b.Fatalf("first create = %+v, want a cold build", cold)
	}
	coldBig := smokeCreateSession(b, d, bigJSON, "pitch=8")
	coldRouted := smokeCreateSession(b, d, routedJSON, "pitch=4&passes=1")
	var route struct {
		Passes    []json.RawMessage `json:"passes"`
		ElapsedMS float64           `json:"elapsed_ms"`
	}
	if code := smokePost(b, d.url("/v1/sessions/"+coldRouted.Hash+"/negotiate"), []byte(`{}`), &route); code != http.StatusOK || len(route.Passes) != 1 {
		b.Fatalf("one-pass route of the 64×64 session = %d after %d passes, want 200 after 1", code, len(route.Passes))
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(net string) {
			defer wg.Done()
			var rr struct {
				Found bool `json:"found"`
			}
			code := smokePost(b, d.url("/v1/sessions/"+cold.Hash+"/route"),
				[]byte(fmt.Sprintf(`{"net":%q}`, net)), &rr)
			if code != http.StatusOK || !rr.Found {
				b.Errorf("concurrent route %s = %d found=%v", net, code, rr.Found)
			}
		}(l.Nets[i*7].Name)
	}
	wg.Wait()

	// SIGTERM with a negotiation in flight: the flip shows on /readyz while
	// /healthz stays green, and the in-flight request completes.
	negDone := make(chan int, 1)
	go func() {
		var nr struct {
			Partial bool `json:"partial"`
		}
		negDone <- smokePost(b, d.url("/v1/sessions/"+cold.Hash+"/negotiate"), []byte(`{}`), &nr)
	}()
	time.Sleep(100 * time.Millisecond) // let the negotiate enter the daemon
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		b.Fatal(err)
	}
	flipDeadline := time.Now().Add(2 * time.Second)
	for {
		if code := smokeGet(b, d.url("/readyz")); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(flipDeadline) {
			b.Fatal("readyz never flipped to 503 inside the grace window")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := smokeGet(b, d.url("/healthz")); code != http.StatusOK {
		b.Fatalf("healthz during drain = %d, want 200 (liveness is not readiness)", code)
	}
	if code := <-negDone; code != http.StatusOK {
		b.Fatalf("in-flight negotiate across the drain = %d, want 200", code)
	}
	if err := d.cmd.Wait(); err != nil {
		b.Fatalf("daemon exited non-zero after graceful drain: %v", err)
	}

	// Warm restart over the same snapshot directory.
	d2 := startDaemon(b, bin, snapdir)
	warmBig := smokeCreateSession(b, d2, bigJSON, "pitch=8")
	if !warmBig.Warm || !warmBig.Created {
		b.Fatalf("restart create (64×64) = %+v, want a warm start", warmBig)
	}
	warmRouted := smokeCreateSession(b, d2, routedJSON, "pitch=4&passes=1")
	if !warmRouted.Warm || !warmRouted.Routed {
		b.Fatalf("restart create (routed 64×64) = %+v, want a warm start of a routed session", warmRouted)
	}
	warm := smokeCreateSession(b, d2, layoutJSON, "pitch=8&weight=40&passes=2")
	if !warm.Warm || !warm.Created {
		b.Fatalf("restart create (32×32) = %+v, want a warm start", warm)
	}
	var rr struct {
		Found bool `json:"found"`
	}
	if code := smokePost(b, d2.url("/v1/sessions/"+warm.Hash+"/route"),
		[]byte(fmt.Sprintf(`{"net":%q}`, l.Nets[0].Name)), &rr); code != http.StatusOK || !rr.Found {
		b.Fatalf("first route after warm restart = %d found=%v", code, rr.Found)
	}
	d2.cmd.Process.Signal(syscall.SIGTERM)
	d2.cmd.Wait()

	b.ReportMetric(coldBig.PrepareMS, "cold-prepare-ms")
	b.ReportMetric(warmBig.PrepareMS, "warm-prepare-ms")
	b.ReportMetric(100*warmBig.PrepareMS/coldBig.PrepareMS, "warm-vs-cold-pct")
	b.ReportMetric(route.ElapsedMS, "cold-route-ms")
	b.ReportMetric(warmRouted.PrepareMS, "routed-warm-prepare-ms")
	b.ReportMetric(100*warmRouted.PrepareMS/(coldRouted.PrepareMS+route.ElapsedMS), "routed-warm-vs-cold-pct")
}

// BenchmarkDaemonSmokeKillRecover is the crash-recovery smoke for the real
// binary: serve a 32×32 session, negotiate it, commit a burst of ECO
// edits, then kill -9 the daemon the instant the last edit is
// acknowledged — no drain, no journal close; the per-commit fsynced journal
// is the only durability. A fresh daemon over the same snapshot directory
// must warm-start the session from its journal and serve wires
// byte-identical to the pre-kill state at the JSON boundary. CI gates
// `recovered-identical/op=1` via benchreport -require.
//
// Run as: go test -run=NONE -bench=DaemonSmokeKillRecover -benchtime=1x ./cmd/groutd
func BenchmarkDaemonSmokeKillRecover(b *testing.B) {
	if testing.Short() {
		b.Skip("daemon smoke builds and runs the binary")
	}
	dir := b.TempDir()
	bin := filepath.Join(dir, "groutd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		b.Fatalf("building groutd: %v\n%s", err, out)
	}
	snapdir := filepath.Join(dir, "snapshots")

	l, err := genroute.MacroGrid(32, 32, 40, 30, 12, 10)
	if err != nil {
		b.Fatal(err)
	}
	var layoutJSON bytes.Buffer
	if err := genroute.WriteLayout(&layoutJSON, l); err != nil {
		b.Fatal(err)
	}

	for i := 0; i < b.N; i++ {
		runKillRecover(b, bin, snapdir, l, layoutJSON.Bytes())
	}
}

func runKillRecover(b *testing.B, bin, snapdir string, l *genroute.Layout, layoutJSON []byte) {
	os.RemoveAll(snapdir)

	d := startDaemon(b, bin, snapdir)
	sr := smokeCreateSession(b, d, layoutJSON, "pitch=4&weight=40&passes=2")
	var nr struct {
		Converged bool `json:"converged"`
	}
	if code := smokePost(b, d.url("/v1/sessions/"+sr.Hash+"/negotiate"), []byte(`{}`), &nr); code != http.StatusOK || !nr.Converged {
		b.Fatalf("negotiate = %d converged=%v", code, nr.Converged)
	}

	// The ECO burst: each request is acknowledged only after its journal
	// record is fsynced, so every edit below must survive the kill.
	for k := 0; k < 4; k++ {
		var er struct {
			Dirty []string `json:"dirty"`
		}
		body := fmt.Sprintf(`{"ops":[{"op":"remove_net","name":%q}]}`, l.Nets[50*k+3].Name)
		if code := smokePost(b, d.url("/v1/sessions/"+sr.Hash+"/eco"), []byte(body), &er); code != http.StatusOK {
			b.Fatalf("eco %d = %d", k, code)
		}
	}
	wires := smokeGetBody(b, d.url("/v1/sessions/"+sr.Hash+"/wires"))

	// kill -9, mid-burst from the daemon's point of view: the last commit
	// was acknowledged microseconds ago and nothing has been drained.
	if err := d.cmd.Process.Kill(); err != nil {
		b.Fatal(err)
	}
	d.cmd.Wait()

	d2 := startDaemon(b, bin, snapdir)
	back := smokeCreateSession(b, d2, layoutJSON, "pitch=4&weight=40&passes=2")
	if !back.Warm || back.Hash != sr.Hash {
		b.Fatalf("recovery create = %+v, want warm journal recovery of %s", back, sr.Hash)
	}
	recovered := smokeGetBody(b, d2.url("/v1/sessions/"+sr.Hash+"/wires"))
	identical := 0.0
	if bytes.Equal(wires, recovered) {
		identical = 1
	} else {
		b.Errorf("recovered wires diverge from pre-kill wires (%d vs %d bytes)", len(recovered), len(wires))
	}
	d2.cmd.Process.Signal(syscall.SIGTERM)
	d2.cmd.Wait()

	b.ReportMetric(identical, "recovered-identical/op")
	b.ReportMetric(float64(back.PrepareMS), "journal-recover-ms")
}

// daemon is one running groutd subprocess with its parsed listen address.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// startDaemon launches the built binary on an ephemeral port and parses the
// bound address from its "groutd listening on" log line.
func startDaemon(b *testing.B, bin, snapdir string) *daemon {
	b.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-snapshots", snapdir,
		"-drain", "120s",
		"-readyz-grace", "2s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		b.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "groutd listening on "); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return &daemon{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		b.Fatal("daemon never logged its listen address")
		return nil
	}
}

type smokeSession struct {
	Hash      string  `json:"hash"`
	Created   bool    `json:"created"`
	Warm      bool    `json:"warm"`
	Routed    bool    `json:"routed"`
	PrepareMS float64 `json:"prepare_ms"`
}

func smokeCreateSession(b *testing.B, d *daemon, layoutJSON []byte, query string) smokeSession {
	b.Helper()
	var sr smokeSession
	code := smokePost(b, d.url("/v1/sessions?"+query), layoutJSON, &sr)
	if code != http.StatusCreated {
		b.Fatalf("create session = %d %+v, want 201", code, sr)
	}
	return sr
}

func smokePost(b *testing.B, url string, body []byte, out any) int {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			b.Fatalf("POST %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// smokeGetBody fetches url and returns the raw response bytes — the JSON
// boundary the crash-recovery check compares byte-for-byte.
func smokeGetBody(b *testing.B, url string) []byte {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s = %d (%s)", url, resp.StatusCode, body)
	}
	return body
}

func smokeGet(b *testing.B, url string) int {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0 // listener gone — the caller's deadline decides
	}
	resp.Body.Close()
	return resp.StatusCode
}
