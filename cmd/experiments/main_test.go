package main

import "testing"

// TestExperimentsRunQuick runs every experiment at the size
// `experiments -quick` runs it and fails on a panic, naming the
// experiment. The experiments print their tables; no verdict on what they
// print is checked here.
func TestExperimentsRunQuick(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("experiment %s (%s) panicked: %v", e.id, e.title, v)
				}
			}()
			e.run(runConfig{quick: true})
		})
	}
}
