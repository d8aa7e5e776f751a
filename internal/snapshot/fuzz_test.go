package snapshot

import (
	"errors"
	"testing"
)

// FuzzSnapshotDecode is the fail-closed contract for the session payload
// decoder, which reads the payload of every journal base: arbitrary bytes
// must produce either a successful decode or one of the typed errors —
// never a panic, and never an untyped error a caller could not classify.
// (The fuzz harness itself converts panics into failures.) The seeds are a
// cut and an overlong payload, and sessions carrying no negotiation and one
// in flight, at a pass boundary and mid-pass.
func FuzzSnapshotDecode(f *testing.F) {
	valid := EncodeSession(fixtureSession())
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0))
	for _, s := range []*Session{fixtureSession(), fixtureNegotiating(false), fixtureNegotiating(true)} {
		f.Add(EncodeSession(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeSession(data); err != nil {
			checkTyped(t, err)
		}
	})
}

func checkTyped(t *testing.T, err error) {
	t.Helper()
	for _, typed := range []error{ErrFormat, ErrVersion, ErrCorrupt} {
		if errors.Is(err, typed) {
			return
		}
	}
	t.Fatalf("decode error %v is not one of the typed snapshot errors", err)
}
