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
}

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
// if absent. Concurrent calls for one hash share a single preparation;
// joiners that time out waiting return their context's error while the
// build itself continues for everyone else.
func (c *sessionCache) getOrCreate(done <-chan struct{}, l *genroute.Layout, hash uint64, opts []genroute.Option) (*session, bool, error) {
	c.mu.Lock()
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
			return nil, false, errors.New("serve: request cancelled while waiting for session preparation")
		}
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

// install adds a built session and evicts past the LRU bound. Eviction
// drops memory only: the journal is the session's durable form, so a
// re-request warm-starts from it. The evicted session's journal is flushed
// and its descriptor released first (the engine reopens it on demand if
// the session is somehow still referenced).
func (c *sessionCache) install(s *session) {
	s.el = c.lru.PushFront(s)
	c.byHash[s.hash] = s
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		ev := back.Value.(*session)
		c.lru.Remove(back)
		delete(c.byHash, ev.hash)
		if err := ev.e.CloseJournal(); err != nil {
			c.logf("serve: evicting session %016x: journal close: %v", ev.hash, err)
		}
		c.logf("serve: evicted session %016x (LRU bound %d)", ev.hash, c.max)
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

// closeJournals flushes and closes every resident session's journal
// (called after drain, when the engines are idle).
func (c *sessionCache) closeJournals() {
	for _, s := range c.snapshotList() {
		if err := s.e.CloseJournal(); err != nil {
			c.logf("serve: drain: session %016x journal close: %v", s.hash, err)
		}
	}
}
