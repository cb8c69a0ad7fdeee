package index

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// The manifest is the segment index's commit point: a single JSON file
// naming exactly the segment files that constitute the index. Readers
// trust nothing else in the directory — a segment file not named by
// the manifest does not exist as far as the index is concerned, which
// is what makes every mutation (flush, merge) a single atomic rename.
// The full protocol and its crash matrix are specified in STORAGE.md
// §5–6.
const (
	// manifestName is the live manifest file inside an index directory.
	manifestName = "MANIFEST.json"
	// manifestFormat is the manifest schema version this code writes
	// and accepts.
	manifestFormat = 1
)

// manifestSegment is one committed segment as recorded in the
// manifest: everything the open path needs to locate and verify it.
type manifestSegment struct {
	// ID is the segment's monotonic sequence number; merged segments
	// get fresh IDs, so an ID never names two generations of bytes.
	ID uint64 `json:"id"`
	// File is the segment file name, relative to the index directory.
	File string `json:"file"`
	// Docs is the number of documents the segment holds.
	Docs int `json:"docs"`
	// Bytes is the exact file size; a mismatch at open is a torn file.
	Bytes int64 `json:"bytes"`
	// CRC32 is the IEEE checksum of the file minus its footer; it must
	// match both the footer and the bytes on disk.
	CRC32 uint32 `json:"crc32"`
}

// manifest is the on-disk commit record (MANIFEST.json).
type manifest struct {
	// Format is the manifest schema version (manifestFormat).
	Format int `json:"format"`
	// Generation increments on every commit (flush or merge); it is
	// the restart-visible counterpart of the in-process add counter
	// the query cache versions entries with.
	Generation uint64 `json:"generation"`
	// NextID is the next unused segment ID.
	NextID uint64 `json:"next_id"`
	// Segments lists the live segments in ascending ID order.
	Segments []manifestSegment `json:"segments"`
}

// loadManifest reads the committed manifest from dir. A directory with
// no manifest is a fresh, empty index — not an error.
func loadManifest(dir string) (manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return manifest{Format: manifestFormat, NextID: 1}, nil
	}
	if err != nil {
		return manifest{}, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return manifest{}, fmt.Errorf("manifest %s: %w", dir, err)
	}
	return m, nil
}

// parseManifest decodes and validates a manifest (STORAGE.md §4). A
// manifest names files the index opens and later deletes, and its
// next_id decides the names new segments take, so it is accepted only
// if every segment's file is the canonical name of its ID (nothing
// outside the directory or under another segment's name), IDs strictly
// ascend, next_id exceeds every ID, and no count is negative.
func parseManifest(data []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, err
	}
	if m.Format != manifestFormat {
		return manifest{}, fmt.Errorf("format %d, this build reads %d", m.Format, manifestFormat)
	}
	if m.NextID == 0 {
		m.NextID = 1
	}
	for i, s := range m.Segments {
		switch {
		case s.File != segmentFileName(s.ID):
			return manifest{}, fmt.Errorf("segment %d: file %q, want %q", s.ID, s.File, segmentFileName(s.ID))
		case i > 0 && s.ID <= m.Segments[i-1].ID:
			return manifest{}, fmt.Errorf("segment %d listed after segment %d", s.ID, m.Segments[i-1].ID)
		case s.ID >= m.NextID:
			return manifest{}, fmt.Errorf("segment %d is not below next_id %d", s.ID, m.NextID)
		case s.Docs < 0 || s.Bytes < 0:
			return manifest{}, fmt.Errorf("segment %d: negative docs %d or bytes %d", s.ID, s.Docs, s.Bytes)
		}
	}
	return m, nil
}

// encodeManifest renders m as MANIFEST.json holds it.
func encodeManifest(m manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// commitManifest atomically publishes a new manifest: write to a
// temporary name, fsync the file, rename over MANIFEST.json, fsync the
// directory. A crash at any point leaves either the old or the new
// manifest fully intact — never a mixture — because rename(2) within
// one directory is atomic and the directory fsync persists the switch.
func commitManifest(dir string, m manifest) error {
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		cerr := f.Close()
		if cerr != nil {
			return fmt.Errorf("%w (and close: %v)", err, cerr)
		}
		return err
	}
	if err := f.Sync(); err != nil {
		cerr := f.Close()
		if cerr != nil {
			return fmt.Errorf("%w (and close: %v)", err, cerr)
		}
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss, not only process death.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// cleanOrphans removes files in dir that the manifest does not
// reference: interrupted temporaries and segments whose commit never
// happened (or whose merge retired them but whose removal was
// interrupted). Called once at open, after the manifest's own segments
// opened successfully. Removal failures are counted, not fatal — an
// orphan is dead weight, not corruption.
func cleanOrphans(dir string, m manifest) {
	live := make(map[string]bool, len(m.Segments)+1)
	live[manifestName] = true
	for _, s := range m.Segments {
		live[s.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		mSegCleanupFailures.Inc()
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || live[name] {
			continue
		}
		if !strings.HasSuffix(name, segmentSuffix) && !strings.HasSuffix(name, tmpSuffix) {
			continue // not ours: leave unrelated files alone
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			mSegCleanupFailures.Inc()
		}
	}
}
