// Package faultinject is a test-only fault-injection harness. Production
// code calls Fire at its failure seams — the search expansion loop, the
// negotiator's reroute step, the ECO commit — and tests install a Hook that
// decides, per site, whether the seam proceeds normally, returns an injected
// error, or panics. With no hook installed (the production state) Fire is a
// single atomic load, so the seams cost nothing on the hot path.
//
// The harness is process-global by design: the seams live deep inside
// goroutine pools where threading a per-call hook through every layer would
// distort the code under test. Tests that Enable a hook must not run in
// parallel with each other; Enable returns a restore func to defer.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Point names a fault-injection seam in the routing stack.
type Point uint8

const (
	// Search fires inside the search expansion loop, at the cancellation
	// poll cadence — the deepest seam, inside any per-net recover guard.
	Search Point = iota
	// RouteNet fires at the top of an isolated per-net route (the router
	// worker pool and every negotiator rip go through it).
	RouteNet
	// Reroute fires in the negotiator's rip step, before the net is
	// rerouted (the net is already out of the live map; an injected fault
	// splices it back).
	Reroute
	// Commit fires in Edit.Commit after validation, before the repaired
	// state is installed.
	Commit
	// SnapshotWrite fires on every write of an atomic file replacement
	// (snapshot.WriteFileAtomic: journal bases, checkpoint folds included),
	// before the bytes reach the temp file (the label is the destination
	// path). An injected fault must leave no temp file behind and keep any
	// previous file intact.
	SnapshotWrite
	// JournalAppend fires before an ECO journal record's bytes are written
	// to the log (the label is the journal path). A fault here must leave
	// the committing engine untouched and the on-disk journal usable — at
	// worst with a torn tail that replay truncates.
	JournalAppend
	// JournalSync fires between a journal append's write and its fsync —
	// the bytes may be in the page cache but are not yet durable, so a
	// fault (crash) here may lose exactly the unacknowledged record.
	JournalSync
	// JournalRename fires immediately before a journal compaction renames
	// the freshly written compact file over the live journal. A fault must
	// leave the previous journal intact.
	JournalRename
	// JournalApply fires before each journal record is re-applied during
	// replay recovery (the label is the journal path).
	JournalApply
	// JournalCompact fires at the start of a journal compaction, before
	// the compact temp file is created.
	JournalCompact
)

// String names the point for injected-error messages.
func (p Point) String() string {
	switch p {
	case Search:
		return "search"
	case RouteNet:
		return "routenet"
	case Reroute:
		return "reroute"
	case Commit:
		return "commit"
	case SnapshotWrite:
		return "snapshotwrite"
	case JournalAppend:
		return "journalappend"
	case JournalSync:
		return "journalsync"
	case JournalRename:
		return "journalrename"
	case JournalApply:
		return "journalapply"
	case JournalCompact:
		return "journalcompact"
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Fault is a hook's verdict for one Fire call.
type Fault uint8

const (
	// None lets the seam proceed normally.
	None Fault = iota
	// Error makes Fire return an error wrapping ErrInjected.
	Error
	// Panic makes Fire panic (exercising the recover guards).
	Panic
)

// Site identifies one Fire call: the seam and a label (typically the net
// name), so hooks can target a specific victim.
type Site struct {
	Point Point
	Label string
}

// Hook inspects a site and picks the fault to inject.
type Hook func(Site) Fault

// ErrInjected is the sentinel every injected error wraps.
var ErrInjected = errors.New("faultinject: injected fault")

var hook atomic.Pointer[Hook]

// Enabled reports whether a hook is installed.
func Enabled() bool { return hook.Load() != nil }

// Enable installs the hook and returns a restore func that removes it.
// Tests defer the restore; installing a hook while another is active
// replaces it (the restore funcs clear unconditionally).
func Enable(h Hook) (restore func()) {
	hook.Store(&h)
	return func() { hook.Store(nil) }
}

// Fire consults the installed hook at a seam. It returns nil (proceed), an
// error wrapping ErrInjected, or panics, per the hook's verdict. With no
// hook installed it is a single atomic load.
func Fire(p Point, label string) error {
	h := hook.Load()
	if h == nil {
		return nil
	}
	switch (*h)(Site{Point: p, Label: label}) {
	case Error:
		return fmt.Errorf("%w at %v %q", ErrInjected, p, label)
	case Panic:
		panic(fmt.Sprintf("faultinject: injected panic at %v %q", p, label))
	}
	return nil
}
