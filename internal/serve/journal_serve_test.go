package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/snapshot"
)

// getBody fetches url and returns the raw response bytes — the form the
// crash-recovery checks compare, since "recovered" is defined at the JSON
// boundary.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, b)
	}
	return b
}

// negotiateOK runs the full negotiation on a session (ECO requires a
// routed session).
func negotiateOK(t *testing.T, ts *httptest.Server, hash string) {
	t.Helper()
	var nr negotiateResponse
	if code, _ := postJSON(t, ts.URL+"/v1/sessions/"+hash+"/negotiate", negotiateRequest{}, &nr); code != http.StatusOK || !nr.Converged {
		t.Fatalf("negotiate = %d %+v", code, nr)
	}
}

func ecoPost(t *testing.T, ts *httptest.Server, hash string, ops []ecoOp) ecoResponse {
	t.Helper()
	var er ecoResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+hash+"/eco", ecoRequest{Ops: ops}, &er)
	if code != http.StatusOK {
		t.Fatalf("eco = %d %+v", code, er)
	}
	return er
}

// addNetOp builds an add_net ECO op for an east–west net at y, in the
// funnel fixture's idiom.
func addNetOp(t *testing.T, name string, y int64) ecoOp {
	t.Helper()
	n := genroute.Net{
		Name: name,
		Terminals: []genroute.Terminal{
			{Name: "w", Pins: []genroute.Pin{{Name: "p", Pos: genroute.Pt(10, y), Cell: genroute.NoCell}}},
			{Name: "e", Pins: []genroute.Pin{{Name: "p", Pos: genroute.Pt(390, y), Cell: genroute.NoCell}}},
		},
	}
	raw, err := json.Marshal(&n)
	if err != nil {
		t.Fatal(err)
	}
	return ecoOp{Op: "add_net", Net: raw}
}

// TestECOJournalCrashRecovery is the daemon-level replay-equals-live
// property: commit ECOs, drop the server without any drain (the moral
// equivalent of kill -9 — per-record fsync is the only durability), and
// require a fresh server on the same snapshot dir to recover the session
// from its journal with byte-identical wires at the JSON boundary.
func TestECOJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	l := funnel(8)

	_, ts := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	sr := createSession(t, ts, l, "pitch=2&weight=40")
	var nr negotiateResponse
	if code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", negotiateRequest{}, &nr); code != http.StatusOK || !nr.Converged {
		t.Fatalf("negotiate = %d %+v", code, nr)
	}
	ecoPost(t, ts, sr.Hash, []ecoOp{{Op: "remove_net", Name: "n07"}})
	ecoPost(t, ts, sr.Hash, []ecoOp{addNetOp(t, "eco0", 20)})

	var list []sessionResponse
	if code := getJSON(t, ts.URL+"/v1/sessions", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("session list = %d %+v", code, list)
	}
	if !list[0].Journaled || list[0].JournalRecords != 2 || list[0].JournalBytes <= 0 || list[0].JournalFsyncErr != "" {
		t.Fatalf("journal state in listing = %+v, want 2 healthy records", list[0])
	}
	wires := getBody(t, ts.URL+"/v1/sessions/"+sr.Hash+"/wires")
	ts.Close() // abrupt: no drain, no journal close — the fsynced records are all there is

	if _, err := os.Stat(filepath.Join(dir, sr.Hash+".jrnl")); err != nil {
		t.Fatalf("eco left no journal: %v", err)
	}

	_, ts2 := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	back := createSession(t, ts2, l, "pitch=2&weight=40")
	if !back.Created || !back.Warm || back.Hash != sr.Hash {
		t.Fatalf("recovery create = %+v, want warm journal recovery of %s", back, sr.Hash)
	}
	if !back.Journaled || back.JournalRecords != 2 {
		t.Fatalf("recovered session journal state = %+v, want the 2 replayed records attached", back)
	}
	recovered := getBody(t, ts2.URL+"/v1/sessions/"+sr.Hash+"/wires")
	if !bytes.Equal(wires, recovered) {
		t.Fatalf("recovered wires diverge from pre-crash wires:\n pre: %s\npost: %s", wires, recovered)
	}
	// The recovered session keeps journaling: a further edit lands as
	// record 3 and survives the next restart the same way.
	ecoPost(t, ts2, sr.Hash, []ecoOp{{Op: "remove_net", Name: "n00"}})
	if code := getJSON(t, ts2.URL+"/v1/sessions", &list); code != http.StatusOK || list[0].JournalRecords != 3 {
		t.Fatalf("post-recovery eco journal state = %+v, want 3 records", list)
	}
}

// TestCorruptJournalFailOpen: a bit-flipped journal is quarantined (with a
// timestamped name) and the ladder falls through to a cold build with a
// fresh journal, instead of failing to serve.
func TestCorruptJournalFailOpen(t *testing.T) {
	dir := t.TempDir()
	l := funnel(8)

	_, ts := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	sr := createSession(t, ts, l, "pitch=2")
	negotiateOK(t, ts, sr.Hash)
	ecoPost(t, ts, sr.Hash, []ecoOp{{Op: "remove_net", Name: "n07"}})
	ts.Close()

	jrnl := filepath.Join(dir, sr.Hash+".jrnl")
	data, err := os.ReadFile(jrnl)
	if err != nil {
		t.Fatalf("eco left no journal: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(jrnl, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	got := createSession(t, ts2, l, "pitch=2")
	if !got.Created || got.Warm || !got.Journaled || got.JournalRecords != 0 {
		t.Fatalf("create over corrupt journal = %+v, want a cold build with a fresh journal", got)
	}
	if len(quarantined(t, jrnl)) != 1 {
		t.Fatal("corrupt journal not quarantined")
	}
	if fresh, err := os.ReadFile(jrnl); err != nil || bytes.Equal(fresh, data) {
		t.Fatalf("corrupt journal still in place (read err %v)", err)
	}
	mustRouteOK(t, ts2, got.Hash, "n01")
}

// TestOtherVersionJournalFailOpen: a journal another build wrote, every
// frame at another codec version, fails as version skew; it is quarantined
// and the session is built cold with a fresh journal, as a corrupt one is.
func TestOtherVersionJournalFailOpen(t *testing.T) {
	dir := t.TempDir()
	l := funnel(8)

	_, ts := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	sr := createSession(t, ts, l, "pitch=2")
	negotiateOK(t, ts, sr.Hash)
	ecoPost(t, ts, sr.Hash, []ecoOp{{Op: "remove_net", Name: "n07"}})
	ts.Close()

	jrnl := filepath.Join(dir, sr.Hash+".jrnl")
	data, err := os.ReadFile(jrnl)
	if err != nil {
		t.Fatalf("eco left no journal: %v", err)
	}
	frame := func(version uint16) []byte { return binary.LittleEndian.AppendUint16([]byte("GRJRNL"), version) }
	if n := bytes.Count(data, frame(journal.Version)); n != 3 {
		t.Fatalf("journal holds %d frames, want header, rebase and one edit", n)
	}
	other := bytes.ReplaceAll(data, frame(journal.Version), frame(journal.Version-1))
	if err := os.WriteFile(jrnl, other, 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	_, ts2 := newTestServer(t, Config{SnapshotDir: dir, Workers: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	got := createSession(t, ts2, l, "pitch=2")
	if !got.Created || got.Warm || !got.Journaled || got.JournalRecords != 0 {
		t.Fatalf("create over another version's journal = %+v, want a cold build with a fresh journal", got)
	}
	bad := quarantined(t, jrnl)
	if len(bad) != 1 {
		t.Fatalf("%d quarantined journals, want 1", len(bad))
	}
	if kept, err := os.ReadFile(bad[0]); err != nil || !bytes.Equal(kept, other) {
		t.Fatalf("quarantined journal differs from the one the restart found (read err %v)", err)
	}
	mu.Lock()
	logged := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(logged, "(version error)") {
		t.Fatalf("quarantine not logged as version skew:\n%s", logged)
	}
	mustRouteOK(t, ts2, got.Hash, "n01")
}

// TestUntypedJournalFailureQuarantines: a journal the warm-start ladder
// cannot use is moved aside whatever its failure — here an injected replay
// fault, which carries no ErrSnapshot* type — so the cold build's fresh
// journal never overwrites acknowledged edits and no stale base comes back
// in their place.
func TestUntypedJournalFailureQuarantines(t *testing.T) {
	dir := t.TempDir()
	l := funnel(8)

	_, ts := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	sr := createSession(t, ts, l, "pitch=2")
	negotiateOK(t, ts, sr.Hash)
	ecoPost(t, ts, sr.Hash, []ecoOp{{Op: "remove_net", Name: "n07"}})
	ts.Close()
	jrnl := filepath.Join(dir, sr.Hash+".jrnl")
	before, err := os.ReadFile(jrnl)
	if err != nil {
		t.Fatalf("eco left no journal: %v", err)
	}

	restore := faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		if site.Point == faultinject.JournalApply {
			return faultinject.Error
		}
		return faultinject.None
	})
	_, ts2 := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	got := createSession(t, ts2, l, "pitch=2")
	restore()
	if !got.Created || got.Warm || got.Nets != 8 {
		t.Fatalf("create over an unreplayable journal = %+v, want a cold build of the 8-net layout", got)
	}
	negotiateOK(t, ts2, got.Hash)
	ecoPost(t, ts2, got.Hash, []ecoOp{{Op: "remove_net", Name: "n03"}})
	bad := quarantined(t, jrnl)
	if len(bad) != 1 {
		t.Fatalf("%d quarantined journals, want 1", len(bad))
	}
	kept, err := os.ReadFile(bad[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, before) {
		t.Fatal("quarantined journal differs from the journal the restart found")
	}
}

// TestSessionReportsPitch: a session reports the pitch it runs at — the
// requested one for a cold build, and its journal's on a warm start, which
// wins over the re-posted ?pitch=.
func TestSessionReportsPitch(t *testing.T) {
	_, ts := newTestServer(t, Config{SnapshotDir: t.TempDir(), MaxSessions: 1, Workers: 1})
	a, b := funnel(8), funnel(6)
	b.Name = "funnel-b"

	if sa := createSession(t, ts, a, "pitch=2"); sa.Pitch != 2 {
		t.Fatalf("cold create with ?pitch=2 = %+v, want pitch 2", sa)
	}
	createSession(t, ts, b, "pitch=2") // evicts a
	back := createSession(t, ts, a, "pitch=3")
	if !back.Created || !back.Warm || back.Pitch != 2 {
		t.Fatalf("warm re-admission with ?pitch=3 = %+v, want the journal's pitch 2", back)
	}
}

// journalNegotiating reports whether the base of the journal at path
// carries a negotiation in flight: the last checkpoint of a negotiation
// that has not completed.
func journalNegotiating(t *testing.T, path string) bool {
	t.Helper()
	s, err := journal.ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := snapshot.DecodeSession(s.Rebase.Session)
	if err != nil {
		t.Fatal(err)
	}
	return sess.Negotiation != nil
}

// dirFiles lists the names in dir, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestOneDurableFilePerSession: create, an interrupted negotiation, a
// completed one, eco and drain each leave the persistence directory
// holding the session's journal and nothing else. The interrupted
// negotiation's checkpoint lives in that journal until a run completes.
func TestOneDurableFilePerSession(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{SnapshotDir: dir, Workers: 1, CheckpointEvery: 1,
		ReadyzGrace: time.Millisecond, Logf: func(string, ...any) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigterm, stop := context.WithCancel(context.Background())
	defer stop()
	served := make(chan error, 1)
	go func() { served <- s.Serve(sigterm, ln) }()
	ts := &httptest.Server{URL: "http://" + ln.Addr().String()} // the helpers read only URL

	sr := createSession(t, ts, funnel(16), "pitch=2&weight=40")
	journalOnly := []string{sr.Hash + ".jrnl"}
	if got := dirFiles(t, dir); !slices.Equal(got, journalOnly) {
		t.Fatalf("after create: %v, want %v", got, journalOnly)
	}

	// The deadline leaves the first pass time to finish and checkpoint;
	// the first rip of the second pass then outlives it.
	restore := slowReroutes(100 * time.Millisecond)
	var nr negotiateResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.Hash+"/negotiate", negotiateRequest{DeadlineMS: 40}, &nr)
	restore()
	if code != http.StatusOK || !nr.Partial {
		t.Fatalf("deadline-bound negotiate = %d %+v, want a 200 partial", code, nr)
	}
	if got := dirFiles(t, dir); !slices.Equal(got, journalOnly) {
		t.Fatalf("after an interrupted negotiation: %v, want %v", got, journalOnly)
	}
	jrnl := filepath.Join(dir, sr.Hash+".jrnl")
	if !journalNegotiating(t, jrnl) {
		t.Fatal("the interrupted negotiation's checkpoint is not in the journal")
	}

	negotiateOK(t, ts, sr.Hash)
	if journalNegotiating(t, jrnl) {
		t.Fatal("the completed negotiation left its checkpoint in the journal")
	}
	ecoPost(t, ts, sr.Hash, []ecoOp{{Op: "remove_net", Name: "n07"}})
	stop() // SIGTERM
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after the drain, want nil", err)
	}
	if got := dirFiles(t, dir); !slices.Equal(got, journalOnly) {
		t.Fatalf("after negotiate, eco and drain: %v, want %v", got, journalOnly)
	}
}

// TestCreateSessionJournalWriteFailure: a session whose journal base cannot
// be written is not served: the POST answers 500 and leaves no file behind,
// temp files included, and the next POST builds the session cold.
func TestCreateSessionJournalWriteFailure(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	var buf bytes.Buffer
	if err := genroute.WriteLayout(&buf, funnel(8)); err != nil {
		t.Fatal(err)
	}

	restore := faultinject.Enable(func(site faultinject.Site) faultinject.Fault {
		if site.Point == faultinject.SnapshotWrite && strings.HasSuffix(site.Label, ".jrnl") {
			return faultinject.Error
		}
		return faultinject.None
	})
	var er errorResponse
	code, _ := postJSON(t, ts.URL+"/v1/sessions?pitch=2", buf.Bytes(), &er)
	restore()
	if code != http.StatusInternalServerError {
		t.Fatalf("create with a failing journal write = %d %+v, want 500", code, er)
	}
	if got := dirFiles(t, dir); len(got) != 0 {
		t.Fatalf("failed create left files behind: %v", got)
	}

	var sr sessionResponse
	if code, _ := postJSON(t, ts.URL+"/v1/sessions?pitch=2", buf.Bytes(), &sr); code != http.StatusCreated || sr.Warm {
		t.Fatalf("create after the failure = %d %+v, want a 201 cold build", code, sr)
	}
}

// TestInvalidLayoutLeavesNoTrace: a create decodes the body without
// validating it, so NewEngine's validation in the cold build is the only
// check. With persistence on, a layout that decodes but breaks a placement
// rule answers 400, lists no session and leaves no journal or checkpoint.
func TestInvalidLayoutLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SnapshotDir: dir, Workers: 1})
	touching := funnel(2)
	touching.Cells[1].Box = genroute.R(190, 96, 210, 200) // meets "lower" at y = 96
	inside := funnel(2)
	inside.Nets[1].Terminals[0].Pins[0].Pos = genroute.Pt(200, 50) // a pad within "lower"
	duplicate := funnel(2)
	duplicate.Nets[1].Name = duplicate.Nets[0].Name
	for _, c := range []struct {
		l    *genroute.Layout
		want string
	}{
		{touching, `cells "lower" and "upper" touch or overlap`},
		{inside, `strictly inside cell "lower"`},
		{duplicate, `duplicate net name "n00"`},
	} {
		var buf bytes.Buffer
		if err := genroute.WriteLayout(&buf, c.l); err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		code, _ := postJSON(t, ts.URL+"/v1/sessions?pitch=2", buf.Bytes(), &er)
		if code != http.StatusBadRequest || !strings.Contains(er.Error, c.want) {
			t.Fatalf("create = %d %q, want 400 naming %q", code, er.Error, c.want)
		}
	}
	var list []sessionResponse
	if code := getJSON(t, ts.URL+"/v1/sessions", &list); code != http.StatusOK || len(list) != 0 {
		t.Fatalf("sessions after invalid creates = %d %+v, want none", code, list)
	}
	if got := dirFiles(t, dir); len(got) != 0 {
		t.Fatalf("invalid creates left files behind: %v", got)
	}
}

// TestQuarantineCapBoundsLitter: repeated quarantines of one path keep
// only the newest quarantineKeep .bad files — evidence retained, litter
// bounded.
func TestQuarantineCapBoundsLitter(t *testing.T) {
	dir := t.TempDir()
	c := newSessionCache(1, dir, 1, nil, func(string, ...any) {})
	path := filepath.Join(dir, "victim.snap")
	for i := 0; i < 3*quarantineKeep; i++ {
		if err := os.WriteFile(path, []byte{byte(i)}, 0o644); err != nil {
			t.Fatal(err)
		}
		c.quarantine(path, genroute.ErrSnapshotCorrupt)
	}
	bad := quarantined(t, path)
	if len(bad) != quarantineKeep {
		t.Fatalf("%d quarantine files retained, want %d: %v", len(bad), quarantineKeep, bad)
	}
	// The survivors are the newest ones: their payload bytes are the last
	// quarantineKeep counters written above.
	for i, name := range bad {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if want := byte(3*quarantineKeep - quarantineKeep + i); len(b) != 1 || b[0] != want {
			t.Fatalf("retained %s holds %v, want [%d] (newest files keep, oldest delete)", name, b, want)
		}
	}
}

// TestEvictionFlushesJournal: LRU eviction closes the evicted session's
// journal, and the session recovers from it — edits included — when its
// layout is re-POSTed.
func TestEvictionFlushesJournal(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SnapshotDir: dir, MaxSessions: 1, Workers: 1})
	a, b := funnel(8), funnel(6)
	b.Name = "funnel-b"

	sa := createSession(t, ts, a, "pitch=2")
	negotiateOK(t, ts, sa.Hash)
	ecoPost(t, ts, sa.Hash, []ecoOp{{Op: "remove_net", Name: "n07"}})
	wires := getBody(t, ts.URL+"/v1/sessions/"+sa.Hash+"/wires")

	createSession(t, ts, b, "pitch=2") // evicts a, closing its journal
	back := createSession(t, ts, a, "pitch=2")
	if !back.Created || !back.Warm || !back.Journaled || back.JournalRecords != 1 {
		t.Fatalf("re-admission = %+v, want a journal recovery carrying the edit record", back)
	}
	recovered := getBody(t, ts.URL+"/v1/sessions/"+sa.Hash+"/wires")
	if !bytes.Equal(wires, recovered) {
		t.Fatalf("re-admitted wires diverge:\n pre: %s\npost: %s", wires, recovered)
	}
}
