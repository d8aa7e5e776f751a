package journal

import (
	"testing"

	"repro/internal/snapshot"
)

// FuzzJournalDecode is the journal's fail-closed contract, mirroring
// snapshot.FuzzSnapshotDecode: arbitrary bytes scan to either a valid
// journal (possibly torn) whose base's session payload decodes or fails
// typed, or one of the typed snapshot errors — never a panic, never an
// unclassifiable error. The seed corpus covers the shapes recovery
// actually meets: clean journals, torn tails, bit flips, version skew, and
// a negotiated funnel's real base.
func FuzzJournalDecode(f *testing.F) {
	base := EncodeBase(fixtureHeader(), fixtureRebase())
	rec1 := fixtureRecord(1)
	rec2 := fixtureRecord(2)
	full := append(append(append([]byte(nil), base...),
		EncodeRecordFrame(&rec1)...), EncodeRecordFrame(&rec2)...)

	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(base)
	f.Add(full)
	f.Add(full[:len(full)-3]) // torn tail
	flipped := append([]byte(nil), full...)
	flipped[len(base)+headerLen+2] ^= 0x40 // bit flip mid-file
	f.Add(flipped)
	skew := append([]byte(nil), full...)
	skew[len(magic)] = 9 // version skew
	f.Add(skew)
	funnel, _, _ := funnelBase(f)
	f.Add(funnel)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Scan(data)
		if err == nil {
			if s.ValidLen > s.Size {
				t.Fatalf("ValidLen %d > Size %d", s.ValidLen, s.Size)
			}
			if !s.Torn && s.ValidLen != s.Size {
				t.Fatalf("clean scan with ValidLen %d != Size %d", s.ValidLen, s.Size)
			}
			// A successful scan must re-scan identically after the torn-tail
			// truncation OpenAppend would perform.
			s2, err := Scan(data[:s.ValidLen])
			if err != nil {
				t.Fatalf("truncated rescan failed: %v", err)
			}
			if s2.Torn || len(s2.Records) != len(s.Records) {
				t.Fatalf("truncated rescan: torn=%v records=%d want %d",
					s2.Torn, len(s2.Records), len(s.Records))
			}
			if _, err := snapshot.DecodeSession(s.Rebase.Session); err != nil && !typed(err) {
				t.Fatalf("base session error %v is not one of the typed errors", err)
			}
			return
		}
		if !typed(err) {
			t.Fatalf("scan error %v is not one of the typed errors", err)
		}
	})
}
