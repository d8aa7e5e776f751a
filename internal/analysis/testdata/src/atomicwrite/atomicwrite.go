// Golden test for the atomicwrite analyzer: persistence packages must write
// files through snapshot.WriteFileAtomic, not directly.
package atomicwrite

import "os"

// writeDirect is the canonical positive: the destination is written in
// place, so a crash mid-write leaves a torn file.
func writeDirect(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `direct os.WriteFile in a persistence package`
}

// createDirect is positive for the same reason.
func createDirect(path string) error {
	f, err := os.Create(path) // want `direct os.Create in a persistence package`
	if err != nil {
		return err
	}
	return f.Close()
}

// openForWrite is positive: O_CREATE|O_WRONLY mutates the destination.
func openForWrite(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644) // want `direct os.OpenFile in a persistence package`
	if err != nil {
		return err
	}
	return f.Close()
}

// openReadOnly is negative: O_RDONLY cannot tear anything.
func openReadOnly(path string) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	n, err := f.Read(buf)
	return buf[:n], err
}

// atomicShape is negative: CreateTemp + Sync + Rename is the WriteFileAtomic
// pattern itself and must stay expressible.
func atomicShape(path string, data []byte) error {
	f, err := os.CreateTemp(".", "atomic-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), path)
}

// annotated is the escape hatch: a deliberate non-atomic write.
func annotated(path string) error {
	//grlint:rawwrite debug dump, never read back by the engine
	return os.WriteFile(path, nil, 0o644)
}

// writeNoSync is the fsync-before-ack positive: the record is written and
// the function returns — acknowledging durability — with the bytes still
// in the page cache.
func writeNoSync(f *os.File, rec []byte) error {
	_, err := f.Write(rec) // want `os.File write with no File.Sync before return`
	return err
}

// writeThenSync is negative: the write is fsynced before the function
// returns, so an acknowledgement means the record survives a crash.
func writeThenSync(f *os.File, rec []byte) error {
	if _, err := f.Write(rec); err != nil {
		return err
	}
	return f.Sync()
}

// nosyncAnnotated is the blessed exception: durability is explicitly the
// caller's job and the site says why.
func nosyncAnnotated(f *os.File, rec []byte) error {
	//grlint:nosync caller batches records and syncs once per group commit
	_, err := f.Write(rec)
	return err
}

// nosyncBare shows the grammar teeth: a directive with no reason is its
// own finding and silences nothing.
func nosyncBare(f *os.File, rec []byte) error {
	//grlint:nosync
	_, err := f.Write(rec) // want `grlint:nosync directive needs a reason` `os.File write with no File.Sync before return`
	return err
}
