package serve

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
)

// session is one resident prepared engine plus its cache bookkeeping.
type session struct {
	hash uint64
	e    *genroute.Engine
	el   *list.Element
	// warm reports a recovery from the session's journal; prep is the
	// preparation wall time either way (the smoke bench's warm-vs-cold
	// ratio).
	warm bool
	prep time.Duration
}

func (s *session) key() string { return fmt.Sprintf("%016x", s.hash) }

// sessionCache is the bounded LRU of prepared sessions, keyed by
// snapshot.LayoutHash, with single-flight preparation and the journal
// warm-start ladder.
type sessionCache struct {
	mu       sync.Mutex
	max      int
	dir      string // "" disables persistence
	every    int    // mid-pass checkpoint cadence
	baseOpts []genroute.Option
	logf     func(string, ...any)

	byHash   map[uint64]*session
	lru      *list.List // front = most recently used
	inflight map[uint64]*prepareCall
	// retiring holds, per evicted hash, a channel closed once the evicted
	// engine has let go of its journal; retires counts those still running.
	retiring map[uint64]chan struct{}
	retires  sync.WaitGroup
}

// errWaitCancelled marks a create whose request ended while it waited for
// the session: on a joined build, or on an evicted predecessor's retire.
var errWaitCancelled = errors.New("serve: request cancelled while waiting for the session")

// prepareCall is one in-flight cold/warm build; concurrent requests for
// the same layout wait on done and share the outcome.
type prepareCall struct {
	done chan struct{}
	sess *session
	err  error
}

func newSessionCache(max int, dir string, every int, baseOpts []genroute.Option, logf func(string, ...any)) *sessionCache {
	return &sessionCache{
		max:      max,
		dir:      dir,
		every:    every,
		baseOpts: baseOpts,
		logf:     logf,
		byHash:   make(map[uint64]*session),
		lru:      list.New(),
		inflight: make(map[uint64]*prepareCall),
		retiring: make(map[uint64]chan struct{}),
	}
}

func (c *sessionCache) jrnlPath(hash uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%016x.jrnl", hash))
}

// lookup returns the resident session for hash (touching its LRU slot),
// or nil.
func (c *sessionCache) lookup(hash uint64) *session {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.byHash[hash]
	if s != nil {
		c.lru.MoveToFront(s.el)
	}
	return s
}

// getOrCreate returns the session for hash, preparing it (warm or cold)
// if absent. Concurrent calls for one hash share a single preparation, and
// none starts while an evicted engine of the hash still holds its journal.
// A call whose done closes while it waits returns errWaitCancelled; the
// build or retire it waited on continues for everyone else.
func (c *sessionCache) getOrCreate(done <-chan struct{}, l *genroute.Layout, hash uint64, opts []genroute.Option) (*session, bool, error) {
	c.mu.Lock()
	for {
		if s := c.byHash[hash]; s != nil {
			c.lru.MoveToFront(s.el)
			c.mu.Unlock()
			return s, false, nil
		}
		if call := c.inflight[hash]; call != nil {
			c.mu.Unlock()
			select {
			case <-call.done:
				return call.sess, false, call.err
			case <-done:
				return nil, false, errWaitCancelled
			}
		}
		retired := c.retiring[hash]
		if retired == nil {
			break
		}
		c.mu.Unlock()
		select {
		case <-retired:
		case <-done:
			return nil, false, errWaitCancelled
		}
		c.mu.Lock()
	}
	call := &prepareCall{done: make(chan struct{})}
	c.inflight[hash] = call
	c.mu.Unlock()

	sess, err := c.build(l, hash, opts)

	c.mu.Lock()
	delete(c.inflight, hash)
	if err == nil {
		c.install(sess)
	}
	call.sess, call.err = sess, err
	c.mu.Unlock()
	close(call.done)
	return sess, err == nil, err
}

// build prepares an engine for the layout, walking the warm-start ladder:
// the session's journal is replayed when there is one (it holds the base
// state and every acknowledged edit), and otherwise — or when it cannot be
// used, which quarantines it — NewEngine builds the session cold and writes
// its fresh journal. A cold build whose journal cannot be written fails
// with an error matching genroute.ErrJournalAppend.
func (c *sessionCache) build(l *genroute.Layout, hash uint64, opts []genroute.Option) (*session, error) {
	opts = append(append([]genroute.Option(nil), c.baseOpts...), opts...)
	if c.dir != "" {
		opts = append(opts,
			genroute.WithCheckpointEvery(c.every),
			genroute.WithJournalFile(c.jrnlPath(hash)))
		if sess := c.replayJournal(l, hash, opts); sess != nil {
			return sess, nil
		}
	}
	start := time.Now()
	e, err := genroute.NewEngine(l, opts...)
	if err != nil {
		return nil, err
	}
	sess := &session{hash: hash, e: e, prep: time.Since(start)}
	c.logf("serve: session %016x cold-prepared in %s (%d cells, %d nets)",
		hash, sess.prep.Round(time.Millisecond), len(l.Cells), len(l.Nets))
	return sess, nil
}

// replayJournal is the warm-start ladder's first rung: recover the session
// from its journal over l, the layout the journal must have been created
// over. A journal that cannot be used — damaged, version-skewed, created
// over another layout, or failing for any other reason — is quarantined
// before the cold build replaces it, so its bytes survive for post-mortem.
func (c *sessionCache) replayJournal(l *genroute.Layout, hash uint64, opts []genroute.Option) *session {
	path := c.jrnlPath(hash)
	start := time.Now()
	e, err := genroute.LoadEngineJournal(path, l, opts...)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // the layout has no session here yet
	}
	if err != nil {
		c.quarantine(path, err)
		return nil
	}
	st, _ := e.JournalStats()
	c.logf("serve: session %016x recovered from journal %s (%d unfolded record(s)) in %s",
		hash, path, st.Records, time.Since(start).Round(time.Millisecond))
	return &session{hash: hash, e: e, warm: true, prep: time.Since(start)}
}

// quarantineKeep bounds the retained quarantine files per source path: the
// newest quarantineKeep stay for post-mortem, older ones are deleted, so
// repeated corruption of one session's files cannot litter the persistence
// directory unboundedly.
const quarantineKeep = 3

// snapshotErrName names the typed persistence-failure class for operators
// reading quarantine logs.
func snapshotErrName(err error) string {
	switch {
	case errors.Is(err, genroute.ErrSnapshotFormat):
		return "format"
	case errors.Is(err, genroute.ErrSnapshotVersion):
		return "version"
	case errors.Is(err, genroute.ErrSnapshotCorrupt):
		return "corrupt"
	case errors.Is(err, genroute.ErrSnapshotLayout):
		return "layout"
	}
	return "untyped"
}

// quarantine moves an unusable journal aside — to path.<UTC
// timestamp>.bad, so successive quarantines of one path never overwrite
// each other's evidence — and prunes all but the newest quarantineKeep
// copies. The log line carries the typed failure class
// (corrupt, version, layout, ...) so the cause is diagnosable without the
// file.
func (c *sessionCache) quarantine(path string, cause error) {
	bad := fmt.Sprintf("%s.%s.bad", path, time.Now().UTC().Format("20060102T150405.000000000"))
	if err := os.Rename(path, bad); err != nil {
		c.logf("serve: quarantine %s: rename failed (%v); removing", path, err)
		os.Remove(path)
		return
	}
	c.logf("serve: quarantined %s -> %s (%s error): %v", path, bad, snapshotErrName(cause), cause)
	if prior, err := filepath.Glob(path + ".*.bad"); err == nil && len(prior) > quarantineKeep {
		sort.Strings(prior) // timestamped names sort oldest first
		for _, old := range prior[:len(prior)-quarantineKeep] {
			os.Remove(old)
		}
	}
}

// install adds a built session and evicts past the LRU bound; the caller
// holds mu. Eviction drops memory only: the journal is the session's
// durable form, so a re-request warm-starts from it. The evicted engine is
// retired on a goroutine of its own, since CloseJournal waits for a writer
// that may still be running on it (bounded by the request deadline and the
// drain): its journal is flushed and released for good, and its late
// writers fail with genroute.ErrRetired. Until the retire ends, a create of
// the same layout waits for it.
func (c *sessionCache) install(s *session) {
	s.el = c.lru.PushFront(s)
	c.byHash[s.hash] = s
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		ev := back.Value.(*session)
		c.lru.Remove(back)
		delete(c.byHash, ev.hash)
		retired := make(chan struct{})
		c.retiring[ev.hash] = retired
		c.retires.Add(1)
		go func() {
			defer c.retires.Done()
			c.retire(ev, "evicting")
			c.mu.Lock()
			delete(c.retiring, ev.hash)
			c.mu.Unlock()
			close(retired)
		}()
		c.logf("serve: evicted session %016x (LRU bound %d)", ev.hash, c.max)
	}
}

// retire retires a session's engine (see install), logging a failed
// journal close.
func (c *sessionCache) retire(s *session, why string) {
	if err := s.e.CloseJournal(); err != nil {
		c.logf("serve: %s session %016x: journal close: %v", why, s.hash, err)
	}
}

func (c *sessionCache) lruValue(el *list.Element) *session { return el.Value.(*session) }

// snapshot returns the resident sessions, most recently used first.
func (c *sessionCache) snapshotList() []*session {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*session, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, c.lruValue(el))
	}
	return out
}

// retireAll retires every resident session's engine, which flushes and
// closes its journal, and waits for the retires eviction started (called
// after drain, when no request is left to write).
func (c *sessionCache) retireAll() {
	for _, s := range c.snapshotList() {
		c.retire(s, "drain:")
	}
	c.retires.Wait()
}
