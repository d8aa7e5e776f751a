package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/snapshot"
)

func fixtureHeader() Header { return Header{LayoutHash: 0xfeedface, Pitch: 2} }

func fixtureRebase() Rebase {
	return Rebase{
		LayoutJSON: []byte(`{"cells":[],"nets":[]}`),
		Session:    []byte("GRSNAP-shaped opaque bytes"),
	}
}

func fixtureRecord(seq uint64) Record {
	return Record{
		Seq:      seq,
		PostHash: 0xabc0 + seq,
		Ops: []Op{
			{Kind: OpAddNet, NetJSON: []byte(`{"name":"n1"}`)},
			{Kind: OpRemoveNet, Name: "gone"},
			{Kind: OpMoveCell, Name: "c3", DX: -4, DY: 7},
		},
	}
}

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "s.jrnl")
}

func TestCreateAppendScanRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fixtureHeader(), fixtureRebase())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		rec := fixtureRecord(0) // Seq assigned by Append
		rec.PostHash = uint64(0x100 + i)
		if err := j.Append(&rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if rec.Seq != uint64(i) {
			t.Fatalf("append %d assigned seq %d", i, rec.Seq)
		}
	}
	st := j.Stats()
	if st.Records != 3 || st.LastErr != "" {
		t.Fatalf("stats = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Torn {
		t.Fatal("clean journal scanned as torn")
	}
	if s.Header != fixtureHeader() {
		t.Fatalf("header = %+v", s.Header)
	}
	if !bytes.Equal(s.Rebase.LayoutJSON, fixtureRebase().LayoutJSON) ||
		!bytes.Equal(s.Rebase.Session, fixtureRebase().Session) {
		t.Fatalf("rebase round trip mismatch: %+v", s.Rebase)
	}
	if len(s.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(s.Records))
	}
	for i, rec := range s.Records {
		if rec.Seq != uint64(i+1) || rec.PostHash != uint64(0x100+i+1) {
			t.Fatalf("record %d = %+v", i, rec)
		}
		want := fixtureRecord(rec.Seq).Ops
		if len(rec.Ops) != len(want) {
			t.Fatalf("record %d has %d ops", i, len(rec.Ops))
		}
		for k := range want {
			g, w := rec.Ops[k], want[k]
			if g.Kind != w.Kind || g.Name != w.Name || g.DX != w.DX || g.DY != w.DY || !bytes.Equal(g.NetJSON, w.NetJSON) {
				t.Fatalf("record %d op %d = %+v, want %+v", i, k, g, w)
			}
		}
	}
	if s.ValidLen != s.Size {
		t.Fatalf("ValidLen %d != Size %d on a clean journal", s.ValidLen, s.Size)
	}
}

// TestAppendAfterClose: Close is final. Append and Compact after it fail,
// never reopen the path, and leave the file byte-identical, so a successor
// that opens the same journal is its only writer. A second Close is a
// no-op.
func TestAppendAfterClose(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fixtureHeader(), fixtureRebase())
	if err != nil {
		t.Fatal(err)
	}
	r1 := fixtureRecord(0)
	if err := j.Append(&r1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r2 := fixtureRecord(0)
	if err := j.Append(&r2); err == nil {
		t.Error("Append after Close succeeded")
	}
	if err := j.Compact(fixtureRebase()); err == nil {
		t.Error("Compact after Close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, closed) {
		t.Fatalf("writes after Close changed the journal (read err %v)", err)
	}
	if s, err := ScanFile(path); err != nil || len(s.Records) != 1 {
		t.Fatalf("journal after Close scans %v, err %v; want its one record", s, err)
	}
}

// TestTornTailTruncated checks tolerate-and-truncate: cutting bytes off the
// final record leaves every earlier record intact, the scan reports Torn,
// and OpenAppend physically truncates before continuing.
func TestTornTailTruncated(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fixtureHeader(), fixtureRebase())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := fixtureRecord(0)
		if err := j.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := len(EncodeRecordFrame(&Record{Seq: 3, PostHash: fixtureRecord(3).PostHash, Ops: fixtureRecord(3).Ops}))

	// Cutting exactly the whole final record is a shorter clean journal.
	if s, err := Scan(full[:len(full)-lastLen]); err != nil || s.Torn || len(s.Records) != 2 {
		t.Fatalf("whole-record cut: s=%+v err=%v", s, err)
	}
	// Every possible tear strictly inside the final record must be tolerated.
	for cut := 1; cut < lastLen; cut++ {
		s, err := Scan(full[:len(full)-cut])
		if err != nil {
			t.Fatalf("tear of %d bytes failed scan: %v", cut, err)
		}
		if !s.Torn {
			t.Fatalf("tear of %d bytes not reported torn", cut)
		}
		if len(s.Records) != 2 {
			t.Fatalf("tear of %d bytes kept %d records, want 2", cut, len(s.Records))
		}
		if s.ValidLen != int64(len(full)-lastLen) {
			t.Fatalf("tear of %d bytes: ValidLen %d, want %d", cut, s.ValidLen, len(full)-lastLen)
		}
	}

	// OpenAppend truncates the torn tail and the next append lands cleanly.
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := OpenAppend(path, s)
	if err != nil {
		t.Fatal(err)
	}
	rec := fixtureRecord(0)
	if err := j2.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 3 {
		t.Fatalf("seq after torn-tail truncation = %d, want 3", rec.Seq)
	}
	j2.Close()
	s2, err := ScanFile(path)
	if err != nil {
		t.Fatalf("journal after truncate+append unreadable: %v", err)
	}
	if s2.Torn || len(s2.Records) != 3 {
		t.Fatalf("after truncate+append: torn=%v records=%d", s2.Torn, len(s2.Records))
	}
}

// TestMidFileCorruptionFailsClosed flips a byte in an early record — with
// decodable records after the damage this is not a torn tail, and the scan
// must fail with a typed error.
func TestMidFileCorruptionFailsClosed(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fixtureHeader(), fixtureRebase())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := fixtureRecord(0)
		if err := j.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	base := len(EncodeBase(fixtureHeader(), fixtureRebase()))
	// Flip a payload byte of the first edit record.
	mut := append([]byte(nil), data...)
	mut[base+headerLen+2] ^= 0xff
	_, err = Scan(mut)
	if err == nil {
		t.Fatal("mid-file corruption scanned cleanly")
	}
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("corruption error %v is not typed", err)
	}
}

// TestTornBaseFailsClosed: a journal torn before its rebase completes has no
// base state to recover, so the scan fails closed rather than reporting an
// empty-but-valid journal.
func TestTornBaseFailsClosed(t *testing.T) {
	full := EncodeBase(fixtureHeader(), fixtureRebase())
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		_, err := Scan(full[:cut])
		if err == nil {
			t.Fatalf("journal cut to %d bytes scanned cleanly", cut)
		}
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "torn") {
			t.Fatalf("torn-base error %v is not ErrCorrupt calling the journal torn", err)
		}
	}
	if _, err := Scan(nil); err == nil {
		t.Fatal("empty journal scanned cleanly")
	}
}

func TestVersionSkewTyped(t *testing.T) {
	data := EncodeBase(fixtureHeader(), fixtureRebase())
	mut := append([]byte(nil), data...)
	mut[len(magic)] = 0x7f // bump version field of the first frame
	_, err := Scan(mut)
	if !errors.Is(err, snapshot.ErrVersion) && !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("version-skew error %v is not typed", err)
	}
}

func TestCompactFoldsAndContinues(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fixtureHeader(), fixtureRebase())
	if err != nil {
		t.Fatal(err)
	}
	j.SetCompaction(2, 0)
	r := fixtureRecord(0)
	if err := j.Append(&r); err != nil {
		t.Fatal(err)
	}
	if j.ShouldCompact() {
		t.Fatal("ShouldCompact at 1 of 2 records")
	}
	r = fixtureRecord(0)
	if err := j.Append(&r); err != nil {
		t.Fatal(err)
	}
	if !j.ShouldCompact() {
		t.Fatal("ShouldCompact false at threshold")
	}
	folded := Rebase{LayoutJSON: []byte(`{"cells":[],"nets":[{"name":"n1"}]}`), Session: []byte("post-fold state")}
	if err := j.Compact(folded); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Records != 0 {
		t.Fatalf("records after compact = %d", st.Records)
	}
	// Appends continue against the compacted file.
	r = fixtureRecord(0)
	if err := j.Append(&r); err != nil {
		t.Fatal(err)
	}
	if r.Seq != 1 {
		t.Fatalf("first seq after compact = %d", r.Seq)
	}
	j.Close()
	s, err := ScanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Rebase.Session, folded.Session) {
		t.Fatalf("compacted rebase = %q", s.Rebase.Session)
	}
	if len(s.Records) != 1 || s.Records[0].Seq != 1 {
		t.Fatalf("records after compact+append = %+v", s.Records)
	}
}

// TestCompactFaultLeavesOldJournal: a fault at any compaction seam leaves
// the pre-compaction journal fully intact and appendable.
func TestCompactFaultLeavesOldJournal(t *testing.T) {
	for _, seam := range []faultinject.Point{faultinject.JournalCompact, faultinject.JournalRename} {
		t.Run(seam.String(), func(t *testing.T) {
			path := tmpJournal(t)
			j, err := Create(path, fixtureHeader(), fixtureRebase())
			if err != nil {
				t.Fatal(err)
			}
			r := fixtureRecord(0)
			if err := j.Append(&r); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
				if s.Point == seam {
					return faultinject.Error
				}
				return faultinject.None
			})
			err = j.Compact(Rebase{LayoutJSON: []byte("{}"), Session: []byte("x")})
			restore()
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("Compact under %v fault = %v", seam, err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("failed compaction mutated the journal")
			}
			left, err := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp-*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Fatalf("failed compaction left temp files: %v", left)
			}
			// The journal is still appendable after the failed fold.
			r2 := fixtureRecord(0)
			if err := j.Append(&r2); err != nil {
				t.Fatalf("append after failed compact: %v", err)
			}
			if r2.Seq != 2 {
				t.Fatalf("seq after failed compact = %d", r2.Seq)
			}
			j.Close()
		})
	}
}

// TestAppendFaultKeepsJournalUsable: an injected append/sync fault fails the
// append (the caller must not acknowledge) but the on-disk journal stays
// scannable — at worst torn — and recovers every acknowledged record.
func TestAppendFaultKeepsJournalUsable(t *testing.T) {
	for _, seam := range []faultinject.Point{faultinject.JournalAppend, faultinject.JournalSync} {
		t.Run(seam.String(), func(t *testing.T) {
			path := tmpJournal(t)
			j, err := Create(path, fixtureHeader(), fixtureRebase())
			if err != nil {
				t.Fatal(err)
			}
			r := fixtureRecord(0)
			if err := j.Append(&r); err != nil {
				t.Fatal(err)
			}
			restore := faultinject.Enable(func(s faultinject.Site) faultinject.Fault {
				if s.Point == seam {
					return faultinject.Error
				}
				return faultinject.None
			})
			r2 := fixtureRecord(0)
			err = j.Append(&r2)
			restore()
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("Append under %v fault = %v", seam, err)
			}
			if st := j.Stats(); st.LastErr == "" {
				t.Fatal("failed append not surfaced in Stats")
			}
			// The next append must roll back any orphan frame the failed
			// one left behind (a JournalSync fault leaves a complete but
			// unacknowledged record on disk) and land in sequence.
			r3 := fixtureRecord(0)
			if err := j.Append(&r3); err != nil {
				t.Fatalf("append after %v fault: %v", seam, err)
			}
			if r3.Seq != 2 {
				t.Fatalf("seq after failed append = %d, want 2", r3.Seq)
			}
			if st := j.Stats(); st.LastErr != "" {
				t.Fatalf("recovered append left LastErr %q", st.LastErr)
			}
			j.Close()
			s, err := ScanFile(path)
			if err != nil {
				t.Fatalf("journal unscannable after %v fault: %v", seam, err)
			}
			if s.Torn || len(s.Records) != 2 {
				t.Fatalf("after %v fault + recovery: torn=%v records=%d, want clean 2",
					seam, s.Torn, len(s.Records))
			}
		})
	}
}

// TestStatsBytesMatchesFile: the Bytes counter is the operator's
// durability-lag gauge; it must track the real file size exactly.
func TestStatsBytesMatchesFile(t *testing.T) {
	path := tmpJournal(t)
	j, err := Create(path, fixtureHeader(), fixtureRebase())
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st := j.Stats(); st.Bytes != fi.Size() {
			t.Fatalf("%s: Stats.Bytes %d, file is %d", stage, st.Bytes, fi.Size())
		}
	}
	check("after create")
	r := fixtureRecord(0)
	if err := j.Append(&r); err != nil {
		t.Fatal(err)
	}
	check("after append")
	if err := j.Compact(fixtureRebase()); err != nil {
		t.Fatal(err)
	}
	check("after compact")
	j.Close()
}

var updateGolden = flag.Bool("update", false, "rewrite the golden frame files under testdata")

// TestGoldenFrames pins the bytes Create writes for a header+rebase base and
// the bytes Append writes for an edit record holding every op kind. A
// journal written by one build must replay in the next, so a change here
// needs a Version bump, not a refreshed golden. -update rewrites the files.
func TestGoldenFrames(t *testing.T) {
	rec := fixtureRecord(1)
	for name, got := range map[string][]byte{
		"base.golden":   EncodeBase(fixtureHeader(), fixtureRebase()),
		"record.golden": EncodeRecordFrame(&rec),
	} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded %d bytes differ from the %d golden bytes", name, len(got), len(want))
		}
	}
}

// funnelBase is the journal a negotiated funnel session leaves, pinned at
// the module root as testdata/session-routed.golden: a real header and a
// base whose rebase record carries a routed session payload. It returns
// the image and the bounds of that session payload within it.
func funnelBase(t testing.TB) (image []byte, sessionStart, sessionEnd int) {
	t.Helper()
	image, err := os.ReadFile(filepath.Join("..", "..", "testdata", "session-routed.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, n0, err := frameAt(image, 0)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, n1, err := frameAt(image, n0)
	if err != nil || kind != kindRebase || n0+n1 != len(image) {
		t.Fatalf("funnel base: second frame kind %d, %d of %d bytes (%v); want the rebase ending the image", kind, n0+n1, len(image), err)
	}
	var rb Rebase
	if err := decodeRebase(payload, &rb); err != nil {
		t.Fatal(err)
	}
	// The session is the rebase payload's last field, just before the CRC.
	sessionEnd = n0 + n1 - 4
	return image, sessionEnd - len(rb.Session), sessionEnd
}

// typed reports whether err wraps one of the typed errors a caller can
// classify.
func typed(err error) bool {
	for _, e := range []error{snapshot.ErrFormat, snapshot.ErrVersion, snapshot.ErrCorrupt} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// TestDecodeTypedErrors: a damaged or foreign funnel base fails Scan with
// the typed error of its class, never a half-read base.
func TestDecodeTypedErrors(t *testing.T) {
	valid, start, _ := funnelBase(t)

	t.Run("not-a-snapshot", func(t *testing.T) {
		if _, err := Scan([]byte("definitely not a snapshot")); !errors.Is(err, snapshot.ErrFormat) {
			t.Fatalf("err = %v, want ErrFormat", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Scan(nil); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		// Another build writes every frame at its own version; that is
		// skew, not damage, so ErrVersion comes alone.
		b := bytes.ReplaceAll(valid, binary.LittleEndian.AppendUint16([]byte(magic), Version),
			binary.LittleEndian.AppendUint16([]byte(magic), Version+1))
		_, err := Scan(b)
		if !errors.Is(err, snapshot.ErrVersion) || errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrVersion alone", err)
		}
	})
	t.Run("bit-rot", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[start+3] ^= 0x40 // flip a session payload bit; the rebase CRC must catch it
		_, err := Scan(b)
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		// The base frame is complete, so the error names the checksum and
		// does not call the journal torn.
		if msg := err.Error(); !strings.Contains(msg, "checksum") || strings.Contains(msg, "torn") {
			t.Fatalf("err = %v, want a checksum failure that is not called torn", err)
		}
	})
	t.Run("truncated-payload", func(t *testing.T) {
		if _, err := Scan(valid[:len(valid)-8]); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("forged-huge-length", func(t *testing.T) {
		// A forged rebase length far beyond the actual input must fail on
		// truncation, without allocating the forged size.
		_, _, n0, err := frameAt(valid, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, plen := binary.Uvarint(valid[n0+headerLen:])
		b := append([]byte(nil), valid[:n0+headerLen]...)
		b = binary.AppendUvarint(b, maxPayload)
		b = append(b, valid[n0+headerLen+plen:]...)
		if _, err := Scan(b); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

// TestCRCGuardsEveryPayloadByte flips each byte of the funnel base's
// session payload in turn, then each byte of the rest of the image: every
// flip must fail Scan with a typed error, never yield a base that decodes
// to a different session.
func TestCRCGuardsEveryPayloadByte(t *testing.T) {
	valid, start, end := funnelBase(t)
	if _, err := snapshot.DecodeSession(valid[start:end]); err != nil {
		t.Fatalf("funnel base payload does not decode: %v", err)
	}
	for i := range valid {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x01
		if s, err := Scan(b); !typed(err) {
			t.Fatalf("byte %d flipped (session payload is %d..%d): scan %+v, err = %v, want a typed error", i, start, end, s, err)
		}
	}
}
