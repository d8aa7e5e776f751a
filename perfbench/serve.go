package main

import (
	"bufio"
	"bytes"
	"context"
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
	"time"

	genroute "repro"
	"repro/internal/gen"
)

const (
	serveGrid     = 32 // serve-eco-mix32: 1024 cells, 2080 nets
	servePitch    = 4
	serveSessions = 5   // sessions posted per pass (setup_s is their median)
	readOnlyReads = 300 // reader-alone requests before the writer starts
	minECOs       = 20  // net-edit requests at least (within three windows)
)

// daemon is a groutd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once stderr hits EOF
}

func startDaemon(bin, snapdir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-snapshots", snapdir,
		"-workers", "2", "-readyz-grace", "1ms", "-drain", "30s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "groutd listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("groutd never reported its address")
	}
}

// stop terminates the daemon and waits for it: SIGTERM, then SIGKILL if
// the drain outlives its deadline.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() { d.cmd.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(40 * time.Second):
		d.cmd.Process.Kill()
		<-exited
	}
	<-d.done
}

// client is the benchmark's HTTP client (loopback, one connection per
// closed-loop client).
var client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

// post sends a JSON body and decodes a 2xx JSON response into out. It
// returns the HTTP status.
func post(url string, body []byte, out any) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

type sessionResp struct {
	Hash      string  `json:"hash"`
	PrepareMS float64 `json:"prepare_ms"`
}

type negotiateResp struct {
	Passes []struct {
		Overflow    int   `json:"overflow"`
		TotalLength int64 `json:"total_length"`
	} `json:"passes"`
	Partial  bool `json:"partial"`
	Overflow int  `json:"overflow"`
}

type routeResp struct {
	Found     bool    `json:"found"`
	Partial   bool    `json:"partial"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

type ecoResp struct {
	Partial   bool    `json:"partial"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// wiresJSON mirrors groutd's GET /v1/sessions/{hash}/wires body, so an
// in-process replay can be encoded into the same bytes.
type wiresJSON struct {
	Hash        string    `json:"hash"`
	Routed      bool      `json:"routed"`
	Overflow    int       `json:"overflow"`
	TotalLength int64     `json:"total_length"`
	Wires       []netWire `json:"wires"`
}

type netWire struct {
	Net      string     `json:"net"`
	Found    bool       `json:"found"`
	Length   int64      `json:"length"`
	Segments [][4]int64 `json:"segments"`
}

// runServe is serve-eco-mix32: post sessions to a fresh groutd, negotiate
// the main one, route reads alone, then run the writer and reader against
// it for the window; finally check the served wires against an in-process
// replay of the committed edits.
func runServe(ctx context.Context, e *env, r *run) error {
	dir, err := os.MkdirTemp(e.scratch, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := startDaemon(e.groutd, filepath.Join(dir, "snapshots"))
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	// Set-up: serveSessions distinct layouts, the main one first.
	var mainJSON []byte
	var hash string
	var setups, prepares []float64
	for k := 0; k < serveSessions; k++ {
		s := e.seed
		if k > 0 {
			s = instSeed(e.seed, k)
		}
		l, err := gen.MacroGrid(serveGrid, serveGrid, 40, 30, 12, s)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := genroute.WriteLayout(&buf, l); err != nil {
			return err
		}
		var sr sessionResp
		id := e.tr.begin("serve.prepare", -1)
		t := time.Now()
		_, err = post(fmt.Sprintf("%s/v1/sessions?pitch=%d", d.base, servePitch), buf.Bytes(), &sr)
		setups = append(setups, time.Since(t).Seconds())
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("posting session %d: %w", k, err)
		}
		prepares = append(prepares, sr.PrepareMS)
		if k == 0 {
			mainJSON, hash = buf.Bytes(), sr.Hash
		}
	}
	r.set("setup_s", median(setups), "s")
	r.set("serve.prepare_ms", median(prepares), "ms")
	sessURL := d.base + "/v1/sessions/" + hash

	var nr negotiateResp
	id := e.tr.begin("serve.negotiate", -1)
	t := time.Now()
	_, err = post(sessURL+"/negotiate", []byte(`{}`), &nr)
	r.set("serve.negotiate_ms", sinceMS(t), "ms")
	e.tr.end(id)
	if err == nil && (nr.Partial || len(nr.Passes) == 0) {
		err = fmt.Errorf("partial negotiation")
	}
	r.check(err, "negotiate")
	if err != nil {
		return err
	}
	last := nr.Passes[len(nr.Passes)-1]
	r.set("wirelength", float64(last.TotalLength), "lu")
	r.set("overflow", float64(nr.Overflow), "count")

	l, err := genroute.ReadLayout(bytes.NewReader(mainJSON))
	if err != nil {
		return err
	}
	mix, err := newOpMix(l, e.seed)
	if err != nil {
		return err
	}

	// The reader alone: its latency without ECO writes in between.
	var alone []float64
	var shed int
	unlocked := func(f func()) { f() }
	for i := 0; i < readOnlyReads; i++ {
		c, _ := routeOnce(e, r, sessURL, mix.nextRead(), unlocked, &shed)
		alone = append(alone, c)
	}
	setLatency(r, "serve.route_readonly_ms", alone, 95)

	// The mix: one closed-loop writer and one closed-loop reader.
	var (
		wg                                sync.WaitGroup
		ecoC, ecoS, moveC, routeC, routeS []float64
		committed                         [][]ecoOp
		mu                                sync.Mutex // guards r's counters and shed
	)
	counted := func(f func()) { mu.Lock(); f(); mu.Unlock() }
	start := time.Now()
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c, s := routeOnce(e, r, sessURL, mix.nextRead(), counted, &shed)
			routeC, routeS = append(routeC, c), append(routeS, s)
		}
	}()
	var werr error
	for el := time.Duration(0); el < e.window || (len(ecoC) < minECOs && el < 3*e.window); el = time.Since(start) {
		ops, err := mix.nextECO()
		if err != nil {
			werr = err
			break
		}
		body, err := json.Marshal(map[string]any{"ops": ops})
		if err != nil {
			werr = err
			break
		}
		var er ecoResp
		id := e.tr.begin("serve.eco", -1)
		t := time.Now()
		code, err := post(sessURL+"/eco", body, &er)
		c := sinceMS(t)
		e.tr.end(id)
		if err == nil && er.Partial {
			err = fmt.Errorf("partial commit")
		}
		counted(func() {
			if code == http.StatusTooManyRequests {
				shed++
			}
			r.check(err, fmt.Sprintf("eco request %d", len(committed)))
		})
		if err != nil {
			if code == 0 || code/100 == 5 {
				werr = err
				break
			}
			continue // refused edits leave the session untouched
		}
		if isMove(ops) {
			moveC = append(moveC, c)
		} else {
			ecoC, ecoS = append(ecoC, c), append(ecoS, er.ElapsedMS)
		}
		committed = append(committed, ops)
	}
	close(stop)
	wg.Wait()
	mixSeconds := time.Since(start).Seconds()
	if werr != nil {
		return werr
	}
	setLatency(r, "op_ms", ecoC, 0)
	// A served user waits for single requests: the median net-edit latency.
	// (The mean moves with the rare edit that queues behind a long read.)
	r.set("op_ms", median(ecoC), "ms")
	setLatency(r, "move_ms", moveC, 0)
	setLatency(r, "read_ms", routeC, 95)
	r.set("req_per_s", float64(len(committed)+len(routeC))/mixSeconds, "1/s")
	r.set("serve.shed", float64(shed), "count")
	setLatency(r, "serve.eco_server_ms", ecoS, 0)
	setLatency(r, "serve.route_server_ms", routeS, 95)
	r.set("serve.eco_overhead_ms_p50", median(diffs(ecoC, ecoS)), "ms")
	r.set("serve.route_overhead_ms_p50", median(diffs(routeC, routeS)), "ms")

	served, err := getBytes(sessURL + "/wires")
	r.check(err, "wires")
	r.set("peak_rss_mb", vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)), "MiB")
	d.stop()
	stopped = true
	if err != nil {
		return err
	}

	// The served state must equal an in-process replay of the same edits.
	want, err := replayECO(ctx, e, r, mainJSON, hash, committed, "", e.tr != nil)
	if err != nil {
		return err
	}
	r.set("session_mb", want.heapMiB, "MiB")
	r.attempted++
	if !bytes.Equal(served, want.wires) {
		r.fail("served wires differ from the in-process replay of %d commits (%d vs %d bytes)", len(committed), len(served), len(want.wires))
	}
	if e.tr != nil {
		// The journal's cost per commit: the same sequence replayed again
		// with the write-ahead journal on.
		j, err := replayECO(ctx, e, r, mainJSON, hash, committed, filepath.Join(dir, "replay.jrnl"), false)
		if err != nil {
			return err
		}
		r.attempted++
		if !bytes.Equal(j.wires, want.wires) {
			r.fail("journaled replay differs from the unjournaled one")
		}
		r.set("journal.overhead_ms_p50", median(diffs(j.commitMS, want.commitMS)), "ms")
		r.set("journal.bytes_per_commit", j.jrnlBPC, "B")
	}
	return nil
}

// routeOnce sends one /route request and returns the client and server
// latencies in milliseconds. counted serializes the updates of r and shed
// with the other client.
func routeOnce(e *env, r *run, sessURL, net string, counted func(func()), shed *int) (float64, float64) {
	var rr routeResp
	id := e.tr.begin("serve.route", -1)
	t := time.Now()
	code, err := post(sessURL+"/route", []byte(fmt.Sprintf(`{"net":%q}`, net)), &rr)
	c := sinceMS(t)
	e.tr.end(id)
	if err == nil && (!rr.Found || rr.Partial) {
		err = fmt.Errorf("found=%v partial=%v", rr.Found, rr.Partial)
	}
	counted(func() {
		if code == http.StatusTooManyRequests {
			*shed++
		}
		r.check(err, "route "+net)
	})
	return c, rr.ElapsedMS
}

func getBytes(url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return b, err
}

// diffs returns a[i]-b[i].
func diffs(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
