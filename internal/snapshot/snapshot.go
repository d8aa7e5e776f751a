// Package snapshot is the session payload codec of crash-safe sessions: it
// serializes a prepared (and possibly routed) engine session, including a
// negotiation in flight, as the payload a journal base carries (see
// internal/journal, whose rebase record frames and checksums it).
//
// The payload does not carry the obstacle index, the interval trees or the
// memoized validate geometry: all of them are deterministic functions of
// the layout, and rebuilding them from spans is orders of magnitude cheaper
// than validating from scratch — the payload instead embeds a hash of the
// layout (LayoutHash), so the loader can prove it is rebuilding over
// byte-identical geometry and skip validation entirely. Decoding fails
// closed with typed errors and never panics, whatever the input bytes;
// every count is bounds-checked against the remaining payload before
// allocation.
//
// The payload codec (Encoder, Decoder), the typed errors and the atomic
// file replacement (WriteFileAtomic) are shared with internal/journal, the
// session's durable file.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/congest"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/router"
	"repro/internal/search"
)

// Typed decode errors of the session's durable file, raised by this
// package's payload decoder and by internal/journal's framer. Every failure
// wraps exactly one of these, so callers can distinguish "wrong file" from
// "stale format" from "bit rot".
var (
	// ErrFormat marks a file that is not a session journal at all: it does
	// not open with the journal magic.
	ErrFormat = errors.New("snapshot: not a snapshot stream")
	// ErrVersion marks a file written by an incompatible codec version
	// (journal.Version, the one codec version).
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrCorrupt marks a frame whose payload fails its checksum, a payload
	// that passes the checksum but does not decode (truncated, inconsistent
	// counts, or illegal values), and a journal damaged anywhere but in a
	// torn tail.
	ErrCorrupt = errors.New("snapshot: corrupt payload")
	// ErrLayout marks a session whose embedded layout hash does not match
	// the layout it is being restored onto (layout drift).
	ErrLayout = errors.New("snapshot: layout does not match")
)

// Session is the serializable state of a prepared engine session: the
// layout identity, the congestion pitch and passage tables, and — when the
// session has routed — the per-net routes and overflow history. The
// obstacle index and congestion map are rebuilt at load time.
type Session struct {
	// LayoutHash identifies the exact layout geometry the session was
	// prepared over (see LayoutHash).
	LayoutHash uint64
	// Pitch is the wire pitch the passage capacities were extracted at.
	Pitch geom.Coord
	// Passages is the extracted corridor list, in extraction order.
	Passages []congest.Passage
	// Routed reports whether Nets/History carry a routing state.
	Routed bool
	// Nets is the per-net routing state, in layout net order. Net names
	// and Segments are not serialized: names come from the layout at load,
	// segments are rebuilt from Paths (the router derives one from the
	// other by construction).
	Nets []router.NetRoute
	// History is the per-passage overflow history (len == len(Passages)).
	History []int
	// Negotiation is the negotiation in flight, nil when there is none: the
	// latest checkpoint of a negotiation that has not completed, which the
	// loaded session continues. Its routes are positional like Nets.
	Negotiation *congest.Checkpoint
}

// EncodeSession encodes a session payload.
func EncodeSession(s *Session) []byte {
	e := &Encoder{}
	e.U64(s.LayoutHash)
	e.Varint(int64(s.Pitch))
	e.Uvarint(uint64(len(s.Passages)))
	for i := range s.Passages {
		p := &s.Passages[i]
		e.Varint(int64(p.Between[0]))
		e.Varint(int64(p.Between[1]))
		e.Rect(p.Rect)
		e.Bool(p.Vertical)
		e.Varint(int64(p.Width))
		e.Varint(int64(p.Capacity))
	}
	e.Bool(s.Routed)
	if s.Routed {
		encodeNets(e, s.Nets)
		encodeHistory(e, s.History)
	}
	e.Bool(s.Negotiation != nil)
	if cp := s.Negotiation; cp != nil {
		e.Uvarint(uint64(cp.PassesRecorded))
		e.Uvarint(uint64(cp.ReroutePass))
		encodeHistory(e, cp.History)
		encodeNets(e, cp.Nets)
		e.Bool(cp.Pass != nil)
		if ps := cp.Pass; ps != nil {
			e.Bool(ps.Changed)
			e.Uvarint(uint64(len(ps.Ripped)))
			for _, r := range ps.Ripped {
				e.Bool(r)
			}
			e.Uvarint(uint64(len(ps.Initial)))
			for _, ni := range ps.Initial {
				e.Uvarint(uint64(ni))
			}
			e.Uvarint(uint64(ps.InitialPos))
			e.Uvarint(uint64(len(ps.Rerouted)))
			for _, name := range ps.Rerouted {
				e.Str(name)
			}
		}
	}
	return e.Bytes()
}

// DecodeSession decodes a session payload. The returned NetRoutes have
// empty Net names (the loader fills them from its layout). A negotiation in
// flight is held to congest.Checkpoint.Validate against the session's
// passages and, in a routed session, its nets; the loader holds it to the
// layout's nets again.
func DecodeSession(payload []byte) (*Session, error) {
	d := NewDecoder(payload)
	s := &Session{LayoutHash: d.U64(), Pitch: geom.Coord(d.Varint())}
	n := d.Count(9) // a passage is at least 9 payload bytes
	s.Passages = make([]congest.Passage, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var p congest.Passage
		p.Between[0] = int(d.Varint())
		p.Between[1] = int(d.Varint())
		p.Rect = d.Rect()
		p.Vertical = d.Bool()
		p.Width = geom.Coord(d.Varint())
		p.Capacity = int(d.Varint())
		if p.Capacity < 0 || p.Width < 0 {
			d.Corrupt("negative passage width or capacity")
		}
		s.Passages = append(s.Passages, p)
	}
	if s.Routed = d.Bool(); s.Routed {
		s.Nets = decodeNets(d)
		s.History = decodeHistory(d, len(s.Passages))
	}
	if d.Bool() {
		s.Negotiation = decodeNegotiation(d, s)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeNegotiation reads the negotiation in flight of the session s and
// validates it against s.
func decodeNegotiation(d *Decoder, s *Session) *congest.Checkpoint {
	cp := &congest.Checkpoint{
		PassesRecorded: int(d.Uvarint()),
		ReroutePass:    int(d.Uvarint()),
	}
	cp.History = decodeHistory(d, len(s.Passages))
	cp.Nets = decodeNets(d)
	if d.Bool() {
		ps := &congest.PassState{Changed: d.Bool()}
		rn := d.Count(1)
		ps.Ripped = make([]bool, 0, rn)
		for i := 0; i < rn && d.Err() == nil; i++ {
			ps.Ripped = append(ps.Ripped, d.Bool())
		}
		in := d.Count(1)
		ps.Initial = make([]int, 0, in)
		for i := 0; i < in && d.Err() == nil; i++ {
			ps.Initial = append(ps.Initial, int(d.Uvarint()))
		}
		ps.InitialPos = int(d.Uvarint())
		sn := d.Count(1)
		ps.Rerouted = make([]string, 0, sn)
		for i := 0; i < sn && d.Err() == nil; i++ {
			ps.Rerouted = append(ps.Rerouted, d.Str())
		}
		cp.Pass = ps
	}
	nets := len(cp.Nets)
	if s.Routed {
		nets = len(s.Nets)
	}
	if err := cp.Validate(nets, len(s.Passages)); err != nil {
		d.Corrupt(err.Error())
	}
	return cp
}

// encodeHistory writes a per-passage overflow history.
func encodeHistory(e *Encoder, history []int) {
	e.Uvarint(uint64(len(history)))
	for _, h := range history {
		e.Varint(int64(h))
	}
}

// decodeHistory reads a per-passage overflow history, which must have one
// non-negative entry per passage.
func decodeHistory(d *Decoder, passages int) []int {
	hn := d.Count(1)
	if hn != passages {
		d.Corrupt("history length does not match passages")
	}
	history := make([]int, 0, hn)
	for i := 0; i < hn && d.Err() == nil; i++ {
		h := int(d.Varint())
		if h < 0 {
			d.Corrupt("negative history")
		}
		history = append(history, h)
	}
	return history
}

// encodeNets writes a per-net routing state. Only the identity-bearing
// fields go to disk: Found, FailedTerminal, Length, Stats and Paths.
// Segments are derived from Paths at decode (RouteNet constructs them from
// consecutive path points), and Net names come from the layout.
func encodeNets(e *Encoder, nets []router.NetRoute) {
	e.Uvarint(uint64(len(nets)))
	for i := range nets {
		nr := &nets[i]
		e.Bool(nr.Found)
		e.Str(nr.FailedTerminal)
		e.Varint(int64(nr.Length))
		e.Uvarint(uint64(nr.Stats.Expanded))
		e.Uvarint(uint64(nr.Stats.Generated))
		e.Uvarint(uint64(nr.Stats.Reopened))
		e.Uvarint(uint64(nr.Stats.MaxOpen))
		e.Uvarint(uint64(len(nr.Paths)))
		for _, path := range nr.Paths {
			e.Uvarint(uint64(len(path)))
			for _, p := range path {
				e.Varint(int64(p.X))
				e.Varint(int64(p.Y))
			}
		}
	}
}

// decodeNets reads a per-net routing state, rebuilding Segments from Paths.
// Consecutive path points must be axis-aligned — a checksum-valid but
// hand-crafted diagonal would otherwise panic the geometry layer.
func decodeNets(d *Decoder) []router.NetRoute {
	n := d.Count(2)
	nets := make([]router.NetRoute, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var nr router.NetRoute
		nr.Found = d.Bool()
		nr.FailedTerminal = d.Str()
		nr.Length = geom.Coord(d.Varint())
		nr.Stats = search.Stats{
			Expanded:  int(d.Uvarint()),
			Generated: int(d.Uvarint()),
			Reopened:  int(d.Uvarint()),
			MaxOpen:   int(d.Uvarint()),
		}
		np := d.Count(1)
		if np > 0 {
			nr.Paths = make([][]geom.Point, 0, np)
		}
		for j := 0; j < np && d.Err() == nil; j++ {
			pn := d.Count(2) // a point is at least 2 payload bytes
			path := make([]geom.Point, 0, pn)
			for k := 0; k < pn && d.Err() == nil; k++ {
				path = append(path, geom.Pt(d.Varint(), d.Varint()))
			}
			for k := 1; k < len(path); k++ {
				if path[k-1].X != path[k].X && path[k-1].Y != path[k].Y {
					d.Corrupt("diagonal path step")
					break
				}
				nr.Segments = append(nr.Segments, geom.S(path[k-1], path[k]))
			}
			nr.Paths = append(nr.Paths, path)
		}
		nets = append(nets, nr)
	}
	return nets
}

// LayoutHash fingerprints the routing-relevant layout geometry (bounds,
// cells with outlines, nets with terminals and pins) with FNV-1a over an
// unambiguous length-prefixed encoding. Two layouts hash equal iff a
// prepared session over one is valid over the other, which is what lets
// LoadEngineJournal skip re-validation: the hash is taken over the
// validated layout when the base is written, so a matching load target is
// byte-identical to geometry that already passed Validate. Call on a layout whose bare
// polygon boxes are filled (Validate or layout.NormalizeBoxes does).
func LayoutHash(l *layout.Layout) uint64 {
	h := &fnv{sum: 14695981039346656037}
	h.str("genroute-layout-v1")
	h.str(l.Name)
	h.rect(l.Bounds)
	h.i(int64(len(l.Cells)))
	for i := range l.Cells {
		c := &l.Cells[i]
		h.str(c.Name)
		h.rect(c.Box)
		h.i(int64(len(c.Poly)))
		for _, p := range c.Poly {
			h.i(int64(p.X))
			h.i(int64(p.Y))
		}
	}
	h.i(int64(len(l.Nets)))
	for i := range l.Nets {
		n := &l.Nets[i]
		h.str(n.Name)
		h.i(int64(len(n.Terminals)))
		for t := range n.Terminals {
			term := &n.Terminals[t]
			h.str(term.Name)
			h.i(int64(len(term.Pins)))
			for _, p := range term.Pins {
				h.str(p.Name)
				h.i(int64(p.Pos.X))
				h.i(int64(p.Pos.Y))
				h.i(int64(p.Cell))
			}
		}
	}
	return h.sum
}

// fnv is FNV-1a 64 with length-prefixed helpers. Each value's bytes go
// straight into the running state: i feeds the bytes binary.PutVarint
// would write (zig-zag, then base-128 little-endian), and str its length
// that way and then the string's bytes, so no value is staged in a buffer.
type fnv struct{ sum uint64 }

const fnvPrime = 1099511628211

func (h *fnv) i(v int64) {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	sum := h.sum
	for ux >= 0x80 {
		sum = (sum ^ (ux&0x7f | 0x80)) * fnvPrime
		ux >>= 7
	}
	h.sum = (sum ^ ux) * fnvPrime
}

func (h *fnv) str(s string) {
	h.i(int64(len(s)))
	sum := h.sum
	for k := 0; k < len(s); k++ {
		sum = (sum ^ uint64(s[k])) * fnvPrime
	}
	h.sum = sum
}

func (h *fnv) rect(r geom.Rect) {
	h.i(int64(r.MinX))
	h.i(int64(r.MinY))
	h.i(int64(r.MaxX))
	h.i(int64(r.MaxY))
}

// WriteFileAtomic replaces path atomically: write encodes into a temp file
// in the same directory, which is fsynced, closed and renamed over path
// only if every step succeeded, so a crash at any instant leaves either the
// previous file or the new one, never a torn one. On any error — or a panic
// inside write — the temp file is removed, so a failed replacement leaves
// the previous file intact and no *.tmp-* litter behind. Every write passes
// through the faultinject.SnapshotWrite seam (labelled with path), and
// beforeRename, when non-nil, runs once the temp file is durable,
// immediately before the rename; its error aborts the replacement. It is
// the one temp+fsync+rename sequence behind the journal's base rewrites,
// negotiation checkpoints included.
func WriteFileAtomic(path string, write func(io.Writer) error, beforeRename func() error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	name := tmp.Name()
	committed := false
	defer func() {
		if !committed {
			tmp.Close() // double Close on the error paths below is harmless
			os.Remove(name)
		}
	}()
	if err := write(faultableWriter{w: tmp, label: path}); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if beforeRename != nil {
		if err := beforeRename(); err != nil {
			return err
		}
	}
	if err := os.Rename(name, path); err != nil {
		return err
	}
	committed = true
	return nil
}

// faultableWriter interposes the SnapshotWrite fault seam before each
// underlying write (a no-op atomic load unless a test hook is installed).
type faultableWriter struct {
	w     io.Writer
	label string
}

func (fw faultableWriter) Write(p []byte) (int, error) {
	if err := faultinject.Fire(faultinject.SnapshotWrite, fw.label); err != nil {
		return 0, err
	}
	return fw.w.Write(p)
}

// Encoder builds a varint-coded payload by plain byte-slice appends. It is
// the codec of every journal payload: the session here, and the journal's
// header and edit records.
type Encoder struct{ buf []byte }

// Bytes returns the payload encoded so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// U64 appends a fixed-width little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zig-zag) varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Byte appends one raw byte.
func (e *Encoder) Byte(v byte) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Rect appends a rectangle as four varints.
func (e *Encoder) Rect(r geom.Rect) {
	e.Varint(int64(r.MinX))
	e.Varint(int64(r.MinY))
	e.Varint(int64(r.MaxX))
	e.Varint(int64(r.MaxY))
}

// Decoder decodes a payload written by Encoder with a sticky error: the
// first malformation poisons every later read, and Finish reports it (or
// trailing garbage). All reads are bounds-checked; none panics. Every
// error wraps ErrCorrupt.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder reads the payload b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err reports the first malformation seen so far.
func (d *Decoder) Err() error { return d.err }

// Corrupt records a malformation (the first one wins).
func (d *Decoder) Corrupt(why string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, why)
	}
}

// U64 reads a fixed-width little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.Corrupt("truncated u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Corrupt("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Corrupt("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Rect reads a rectangle written by Encoder.Rect.
func (d *Decoder) Rect() geom.Rect {
	return geom.Rect{
		MinX: geom.Coord(d.Varint()),
		MinY: geom.Coord(d.Varint()),
		MaxX: geom.Coord(d.Varint()),
		MaxY: geom.Coord(d.Varint()),
	}
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.Corrupt("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads a boolean; any byte other than 0 or 1 is corrupt.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.Corrupt("truncated bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.Corrupt("bad bool")
		return false
	}
	return v == 1
}

// Count reads an element count and proves it plausible: each element needs
// at least min payload bytes, so a count the remaining bytes cannot hold is
// corrupt — checked before any allocation sized by it.
func (d *Decoder) Count(min int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(len(d.b)/min) {
		d.Corrupt("count exceeds remaining payload")
		return 0
	}
	return int(v)
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Blob reads a length-prefixed byte slice into a fresh copy.
func (d *Decoder) Blob() []byte {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	b := append([]byte(nil), d.b[:n]...)
	d.b = d.b[n:]
	return b
}

// Finish reports the first malformation, or trailing bytes the payload
// should not have.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.b))
	}
	return nil
}
