package snapshot

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotDecode is the fail-closed contract for the session decoder,
// which also reads the frame embedded in every journal base: arbitrary
// bytes must produce either a successful decode or one of the typed errors
// — never a panic, and never an untyped error a caller could not classify.
// (The fuzz harness itself converts panics into failures.) The seeds
// include sessions carrying a negotiation in flight, at a pass boundary and
// mid-pass.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte("GRSNAPxxxxxxxxxxxxxxxxxxxxxxxx"))
	for _, s := range []*Session{fixtureSession(), fixtureNegotiating(false), fixtureNegotiating(true)} {
		var buf bytes.Buffer
		if err := EncodeSession(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeSession(bytes.NewReader(data)); err != nil {
			checkTyped(t, err)
		}
	})
}

func checkTyped(t *testing.T, err error) {
	t.Helper()
	for _, typed := range []error{ErrFormat, ErrVersion, ErrChecksum, ErrCorrupt} {
		if errors.Is(err, typed) {
			return
		}
	}
	t.Fatalf("decode error %v is not one of the typed snapshot errors", err)
}
