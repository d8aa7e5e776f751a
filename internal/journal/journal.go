// Package journal is a session's durable file: a base state followed by an
// append-only log of committed edit records, which makes every
// acknowledged Edit.Commit survive a hard crash (kill -9, OOM, power loss).
// A journal without records is a snapshot.
//
// A journal file is a sequence of self-framed records:
//
//	magic "GRJRNL" | version u16 | kind u8 | uvarint payload length | payload | crc32(payload)
//
// with payloads in the internal/snapshot codec (snapshot.Encoder and
// snapshot.Decoder: little-endian fixed-width fields, varints,
// bounds-checked decode that never panics) and a CRC-32 per record. This is
// the one frame of the session's durable file, and Version the one codec
// version. Three record kinds exist, in a fixed structural order:
//
//   - header (first record): the identity of the layout the session was
//     created over — its fingerprint and congestion pitch. Replay onto any
//     other layout fails closed.
//   - rebase (second record): a complete base state — the
//     internal/snapshot session payload (routes, passages, history, a
//     negotiation in flight), plus the session's layout as JSON once edits
//     have changed it. Compaction rewrites the journal as header+rebase,
//     folding every edit so far into a fresh base.
//   - edit (any number): one committed ECO edit set (AddNet/RemoveNet/
//     MoveCell ops), its sequence number, and the fingerprint of the layout
//     after the commit — the anchor replay verifies against.
//
// Failure discipline: a record that fails to decode *at the tail* of the
// file (truncated header or payload, missing or mismatched checksum, with
// no decodable record after it) is a torn append — the expected remains of
// a crash mid-write — and scanning tolerates it by truncating the tail;
// every acknowledged record before it is intact because appends are
// fsynced before Commit acknowledges. A record that fails *mid-file* (a
// decodable record follows the damage) is real corruption and scanning
// fails closed with a typed error. A file that does not open with the
// magic is not a journal (ErrFormat), and one whose first record carries
// another Version was written by another build (ErrVersion).
//
// A Journal (the writer) is not safe for concurrent use: the engine's
// writer token serializes its appends and folds. Close is final: a closed
// Journal never writes its path again, which a successor may then open.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/snapshot"
)

// Version is the codec version this build reads and writes: of the frame
// and of every payload in it, the session included. Version 2 carries the
// session payload bare in the rebase record, where Version 1 wrapped it in
// a second frame of its own.
const Version = 2

const (
	magic      = "GRJRNL"
	headerLen  = len(magic) + 2 + 1 // + uvarint length follows
	maxPayload = 1 << 30            // decode allocation cap; real payloads are far smaller

	kindHeader byte = 1
	kindRebase byte = 2
	kindEdit   byte = 3
)

// Typed errors are shared with internal/snapshot: the journal is part of
// the same durability ladder and callers classify failures with the same
// errors.Is checks (ErrFormat, ErrVersion, ErrCorrupt, ErrLayout
// re-exported as genroute.ErrSnapshot*).
var (
	errFormat  = snapshot.ErrFormat
	errVersion = snapshot.ErrVersion
	errCorrupt = snapshot.ErrCorrupt
	// errChecksum is frameAt's verdict on a complete frame whose payload
	// fails its CRC: damage, where a short frame may be a torn write.
	errChecksum = fmt.Errorf("%w: payload checksum mismatch", errCorrupt)
	// errClosed refuses a write through a closed Journal.
	errClosed = errors.New("journal: closed")
)

// Header identifies the session a journal belongs to: the fingerprint and
// pitch of the layout the session was *created* over. Replay presents the
// same layout (a client re-POSTing the original geometry) whatever edits
// the journal has accumulated since.
type Header struct {
	LayoutHash uint64
	Pitch      geom.Coord
}

// Rebase is a complete base state: Session, the session payload (written
// by snapshot.EncodeSession, guarded by the rebase record's CRC) carrying
// routes, passages, history and any negotiation in flight, and LayoutJSON,
// the session layout as JSON. LayoutJSON is empty while the layout still
// fingerprints to the header's: replay then restores the session over the
// creation layout its caller presents. Replay starts here and applies the
// edit records that follow.
type Rebase struct {
	LayoutJSON []byte
	Session    []byte
}

// OpKind discriminates the staged operations of one edit record.
type OpKind uint8

const (
	OpAddNet OpKind = iota + 1
	OpRemoveNet
	OpMoveCell
)

// Op is one staged ECO operation in serialized form.
type Op struct {
	Kind OpKind
	// Name is the RemoveNet net name or the MoveCell cell name.
	Name string
	// DX, DY is the MoveCell translation.
	DX, DY int64
	// NetJSON is the AddNet net as layout JSON.
	NetJSON []byte
}

// Record is one committed ECO edit set.
type Record struct {
	// Seq numbers the record within its journal, starting at 1 after each
	// rebase.
	Seq uint64
	// PostHash fingerprints the layout after the commit; replay fails
	// closed if re-applying the ops lands anywhere else.
	PostHash uint64
	Ops      []Op
}

// Scanned is the decoded content of a journal file.
type Scanned struct {
	Header  Header
	Rebase  Rebase
	Records []Record
	// Torn reports a truncated tail: ValidLen is the byte offset of the
	// last fully decodable record's end, and OpenAppend physically
	// truncates the file there before appending.
	Torn     bool
	ValidLen int64
	// Size is the file size as read.
	Size int64
}

// encodeFrame appends one framed record to dst.
func encodeFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// frameAt tries to decode one frame at data[off:], returning the kind, the
// payload and the length consumed. Any malformation — bad magic, truncated
// fields, checksum mismatch — returns an error; the caller decides whether
// the failure is a tolerable torn tail or mid-file corruption.
func frameAt(data []byte, off int) (kind byte, payload []byte, n int, err error) {
	b := data[off:]
	if len(b) < headerLen+1 {
		return 0, nil, 0, fmt.Errorf("%w: truncated record header", errFormat)
	}
	if string(b[:len(magic)]) != magic {
		return 0, nil, 0, fmt.Errorf("%w: bad record magic", errFormat)
	}
	ver := binary.LittleEndian.Uint16(b[len(magic):])
	if ver != Version {
		return 0, nil, 0, fmt.Errorf("%w: journal version %d, this build reads %d", errVersion, ver, Version)
	}
	kind = b[len(magic)+2]
	plen, vn := binary.Uvarint(b[headerLen:])
	if vn <= 0 {
		return 0, nil, 0, fmt.Errorf("%w: bad payload length", errCorrupt)
	}
	if plen > maxPayload {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d exceeds cap", errCorrupt, plen)
	}
	body := headerLen + vn
	if uint64(len(b)-body) < plen+4 {
		return 0, nil, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", errCorrupt, len(b)-body, plen+4)
	}
	payload = b[body : body+int(plen)]
	sum := binary.LittleEndian.Uint32(b[body+int(plen):])
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, 0, errChecksum
	}
	return kind, payload, body + int(plen) + 4, nil
}

// anyFrameAfter reports whether a fully decodable frame starts anywhere in
// data after offset from — the discriminator between a torn tail (nothing
// decodable follows the damage; tolerate and truncate) and mid-file
// corruption (good records follow; fail closed).
func anyFrameAfter(data []byte, from int) bool {
	for off := from + 1; ; off++ {
		i := bytes.Index(data[off:], []byte(magic))
		if i < 0 {
			return false
		}
		off += i
		if _, _, _, err := frameAt(data, off); err == nil {
			return true
		}
	}
}

// Scan decodes a journal image. Structural order is enforced (header, then
// rebase, then edits with consecutive sequence numbers); a torn tail is
// tolerated and reported via Torn/ValidLen; damage with decodable records
// after it fails closed. An image that does not open with the magic is not
// a journal (ErrFormat), and one whose first record carries another version
// was written by another build (ErrVersion): neither is reported as damage.
func Scan(data []byte) (*Scanned, error) {
	if len(data) >= headerLen {
		if string(data[:len(magic)]) != magic {
			return nil, fmt.Errorf("%w: bad journal magic", errFormat)
		}
		if ver := binary.LittleEndian.Uint16(data[len(magic):]); ver != Version {
			return nil, fmt.Errorf("%w: journal version %d, this build reads %d", errVersion, ver, Version)
		}
	}
	s := &Scanned{Size: int64(len(data))}
	off := 0
	for i := 0; off < len(data); i++ {
		kind, payload, n, err := frameAt(data, off)
		if err != nil {
			if anyFrameAfter(data, off) {
				return nil, fmt.Errorf("%w: record %d damaged mid-file (%v)", errCorrupt, i, err)
			}
			if i < 2 {
				// A journal torn or damaged inside its header or rebase has
				// no usable base state to recover to — fail closed so the
				// caller quarantines it and builds cold. Bases are written
				// by temp file, fsync and rename, so a complete base frame
				// that fails its checksum has rotted, not torn.
				if errors.Is(err, errChecksum) {
					return nil, fmt.Errorf("%w: journal base state damaged (%v)", errCorrupt, err)
				}
				return nil, fmt.Errorf("%w: journal torn before its base state (%v)", errCorrupt, err)
			}
			s.Torn = true
			s.ValidLen = int64(off)
			return s, nil
		}
		switch {
		case i == 0:
			if kind != kindHeader {
				return nil, fmt.Errorf("%w: first record kind %d, want header", errCorrupt, kind)
			}
			if err := decodeHeader(payload, &s.Header); err != nil {
				return nil, err
			}
		case i == 1:
			if kind != kindRebase {
				return nil, fmt.Errorf("%w: second record kind %d, want rebase", errCorrupt, kind)
			}
			if err := decodeRebase(payload, &s.Rebase); err != nil {
				return nil, err
			}
		default:
			if kind != kindEdit {
				return nil, fmt.Errorf("%w: record %d kind %d, want edit", errCorrupt, i, kind)
			}
			var rec Record
			if err := decodeRecord(payload, &rec); err != nil {
				return nil, err
			}
			if rec.Seq != uint64(len(s.Records)+1) {
				return nil, fmt.Errorf("%w: record %d out of sequence (seq %d, want %d)",
					errCorrupt, i, rec.Seq, len(s.Records)+1)
			}
			s.Records = append(s.Records, rec)
		}
		off += n
	}
	if off == 0 {
		return nil, fmt.Errorf("%w: empty journal", errCorrupt)
	}
	s.ValidLen = int64(off)
	return s, nil
}

// ScanFile reads and decodes a journal file.
func ScanFile(path string) (*Scanned, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Scan(data)
}

// Payload codecs, over the snapshot package's Encoder and Decoder.

func encodeHeader(h *Header) []byte {
	var e snapshot.Encoder
	e.U64(h.LayoutHash)
	e.Varint(int64(h.Pitch))
	return e.Bytes()
}

func decodeHeader(b []byte, h *Header) error {
	d := snapshot.NewDecoder(b)
	h.LayoutHash = d.U64()
	h.Pitch = geom.Coord(d.Varint())
	return d.Finish()
}

func encodeRebase(r *Rebase) []byte {
	var e snapshot.Encoder
	e.Blob(r.LayoutJSON)
	e.Blob(r.Session)
	return e.Bytes()
}

func decodeRebase(b []byte, r *Rebase) error {
	d := snapshot.NewDecoder(b)
	r.LayoutJSON = d.Blob()
	r.Session = d.Blob()
	return d.Finish()
}

func encodeRecord(rec *Record) []byte {
	var e snapshot.Encoder
	e.Uvarint(rec.Seq)
	e.U64(rec.PostHash)
	e.Uvarint(uint64(len(rec.Ops)))
	for i := range rec.Ops {
		op := &rec.Ops[i]
		e.Byte(byte(op.Kind))
		switch op.Kind {
		case OpAddNet:
			e.Blob(op.NetJSON)
		case OpRemoveNet:
			e.Str(op.Name)
		case OpMoveCell:
			e.Str(op.Name)
			e.Varint(op.DX)
			e.Varint(op.DY)
		}
	}
	return e.Bytes()
}

func decodeRecord(b []byte, rec *Record) error {
	d := snapshot.NewDecoder(b)
	rec.Seq = d.Uvarint()
	rec.PostHash = d.U64()
	n := d.Count(1)
	rec.Ops = make([]Op, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var op Op
		op.Kind = OpKind(d.Byte())
		switch op.Kind {
		case OpAddNet:
			op.NetJSON = d.Blob()
		case OpRemoveNet:
			op.Name = d.Str()
		case OpMoveCell:
			op.Name = d.Str()
			op.DX = d.Varint()
			op.DY = d.Varint()
		default:
			d.Corrupt("unknown op kind")
		}
		rec.Ops = append(rec.Ops, op)
	}
	if len(rec.Ops) == 0 && d.Err() == nil {
		d.Corrupt("edit record stages no ops")
	}
	return d.Finish()
}

// Stats is the journal's operator surface: how much unfolded edit history
// the file holds (durability lag vs the last compaction) and the last
// append/fsync failure, if any.
type Stats struct {
	// Records is the number of edit records since the last rebase.
	Records int
	// Bytes is the journal file size — everything a recovery must replay.
	Bytes int64
	// LastErr is the most recent append/sync/compact failure ("" when
	// healthy). A failed append also fails the commit that attempted it;
	// a failed compaction only delays folding.
	LastErr string
}

// Journal is the writer over one journal file. Appends are write+fsync
// before return — a nil Append error means the record survives kill -9.
// Not safe for concurrent use; the owning engine serializes access.
type Journal struct {
	path    string
	hdr     Header
	f       *os.File
	closed  bool // set by Close, after which nothing writes path
	records int
	bytes   int64
	lastErr error
	// dirty is set before each append's write and cleared after its fsync
	// is acknowledged. When a failed (or panic-unwound) append leaves bytes
	// past the last acknowledged record — a torn frame, or a complete but
	// unacknowledged one — the next append first rolls the file back to
	// j.bytes, so an orphan frame can never be followed by a live record
	// with a duplicate sequence number.
	dirty bool

	// compactRecords/compactBytes are the fold thresholds consulted by
	// ShouldCompact (zero = the package defaults).
	compactRecords int
	compactBytes   int64
}

// Default compaction thresholds: fold the journal into a fresh rebase once
// it accumulates this many edit records or bytes.
const (
	DefaultCompactRecords = 256
	DefaultCompactBytes   = 16 << 20
)

// Create atomically writes a fresh journal (header + rebase) and opens it
// for appending. An existing file at path is replaced.
func Create(path string, hdr Header, rb Rebase) (*Journal, error) {
	j := &Journal{path: path, hdr: hdr}
	n, err := j.writeBase(rb)
	if err != nil {
		return nil, err
	}
	j.bytes = n
	return j, j.reopen()
}

// OpenAppend opens an existing, already-scanned journal for appending,
// truncating a torn tail first so the next append starts at a record
// boundary.
func OpenAppend(path string, s *Scanned) (*Journal, error) {
	if s.Torn {
		if err := os.Truncate(path, s.ValidLen); err != nil {
			return nil, err
		}
	}
	j := &Journal{
		path:    path,
		hdr:     s.Header,
		records: len(s.Records),
		bytes:   s.ValidLen,
	}
	return j, j.reopen()
}

// SetCompaction overrides the fold thresholds (zero keeps the default).
func (j *Journal) SetCompaction(records int, bytes int64) {
	j.compactRecords = records
	j.compactBytes = bytes
}

// Header returns the identity the journal was created with.
func (j *Journal) Header() Header { return j.hdr }

// Stats reports the journal's durability-lag counters.
func (j *Journal) Stats() Stats {
	s := Stats{Records: j.records, Bytes: j.bytes}
	if j.lastErr != nil {
		s.LastErr = j.lastErr.Error()
	}
	return s
}

// reopen (re)opens the journal file for appending. The raw O_APPEND open is
// deliberate: a journal grows in place — records are individually
// checksummed, appends fsync before acknowledging, and a torn tail is
// truncated at the next open, so the atomic-replace discipline applies only
// to Create/Compact, which go through writeBase.
func (j *Journal) reopen() error {
	//grlint:rawwrite append-only log; per-record CRC + fsync-before-ack + torn-tail truncation replace the temp+rename discipline
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.lastErr = err
		return err
	}
	j.f = f
	return nil
}

// Append encodes one edit record, writes it and fsyncs before returning:
// a nil error is the caller's license to acknowledge the commit. The
// record's Seq is assigned here (records since last rebase + 1). On error
// the file may hold a torn tail; the next OpenAppend truncates it and no
// acknowledged record is affected.
func (j *Journal) Append(rec *Record) error {
	if j.closed {
		return errClosed
	}
	if err := faultinject.Fire(faultinject.JournalAppend, j.path); err != nil {
		j.lastErr = err
		return err
	}
	if j.f == nil {
		// Compact's reopen failed; the path still names the live journal.
		if err := j.reopen(); err != nil {
			return err
		}
	}
	if j.dirty {
		// A previous append failed (or unwound in a panic) after possibly
		// writing bytes: roll the file back to the last acknowledged record
		// so the new record cannot land after an orphan frame carrying its
		// own sequence number.
		if err := os.Truncate(j.path, j.bytes); err != nil {
			j.lastErr = err
			return err
		}
		j.dirty = false
	}
	rec.Seq = uint64(j.records) + 1
	frame := encodeFrame(nil, kindEdit, encodeRecord(rec))
	j.dirty = true
	if _, err := j.f.Write(frame); err != nil {
		j.lastErr = err
		return err
	}
	if err := faultinject.Fire(faultinject.JournalSync, j.path); err != nil {
		j.lastErr = err
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.lastErr = err
		return err
	}
	j.dirty = false
	j.records++
	j.bytes += int64(len(frame))
	j.lastErr = nil
	return nil
}

// ShouldCompact reports whether the journal has outgrown its fold
// thresholds and the owner should Compact with a fresh base state.
func (j *Journal) ShouldCompact() bool {
	recs, bts := j.compactRecords, j.compactBytes
	if recs <= 0 {
		recs = DefaultCompactRecords
	}
	if bts <= 0 {
		bts = DefaultCompactBytes
	}
	return j.records >= recs || j.bytes >= bts
}

// Compact folds the journal: the given base state (which must include
// every appended edit) becomes the new header+rebase and the edit records
// are dropped, via temp+fsync+rename so a crash at any point leaves either
// the old journal or the new one — never a torn or empty file. On error
// the old journal stays live and appends continue against it.
func (j *Journal) Compact(rb Rebase) error {
	if j.closed {
		return errClosed
	}
	if err := faultinject.Fire(faultinject.JournalCompact, j.path); err != nil {
		j.lastErr = err
		return err
	}
	n, err := j.writeBase(rb)
	if err != nil {
		j.lastErr = err
		return err
	}
	// The rename replaced the inode the old handle points to.
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	j.records = 0
	j.bytes = n
	j.dirty = false
	j.lastErr = nil
	return j.reopen()
}

// writeBase atomically replaces the journal file with header+rebase (see
// snapshot.WriteFileAtomic), firing the JournalRename seam right before the
// rename, and returns the size written.
func (j *Journal) writeBase(rb Rebase) (int64, error) {
	base := EncodeBase(j.hdr, rb)
	err := snapshot.WriteFileAtomic(j.path, func(w io.Writer) error {
		_, err := w.Write(base)
		return err
	}, func() error { return faultinject.Fire(faultinject.JournalRename, j.path) })
	return int64(len(base)), err
}

// Close syncs and closes the journal file, for good: Append and Compact
// fail after it and never reopen the path, so an evicted session's journal
// holds every acknowledged record and nothing after them. A second Close
// returns nil.
func (j *Journal) Close() error {
	j.closed = true
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// EncodeRecordFrame frames one edit record as it would be appended — the
// fuzz corpus builder (and tests that hand-craft torn tails) use it to
// produce byte-exact journal images.
func EncodeRecordFrame(rec *Record) []byte {
	return encodeFrame(nil, kindEdit, encodeRecord(rec))
}

// EncodeBase frames a header+rebase pair as Create would write it.
func EncodeBase(hdr Header, rb Rebase) []byte {
	return encodeFrame(encodeFrame(nil, kindHeader, encodeHeader(&hdr)), kindRebase, encodeRebase(&rb))
}
