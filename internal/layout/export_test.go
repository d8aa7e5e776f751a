package layout

// ValidateNaive exposes validateNaive, the all-pairs reference Validate is
// held to, to the external tests.
func (l *Layout) ValidateNaive() error { return l.validateNaive() }
