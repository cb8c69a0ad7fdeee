package index

import (
	"reflect"
	"testing"
)

// validManifest is a manifest as flushes and merges commit it: two live
// segments in ascending ID order, next_id past both.
func validManifest() manifest {
	return manifest{Format: manifestFormat, Generation: 3, NextID: 5, Segments: []manifestSegment{
		{ID: 2, File: segmentFileName(2), Docs: 10, Bytes: 400, CRC32: 7},
		{ID: 4, File: segmentFileName(4), Docs: 3, Bytes: 200, CRC32: 9},
	}}
}

// loadCommitted commits m into a fresh directory and loads it back.
func loadCommitted(t *testing.T, m manifest) (manifest, error) {
	t.Helper()
	dir := t.TempDir()
	if err := commitManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	return loadManifest(dir)
}

func TestLoadManifestAcceptsCommitted(t *testing.T) {
	want := validManifest()
	got, err := loadCommitted(t, want)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %+v, committed %+v", got, want)
	}
}

// A segment's file must be its ID's canonical name: a manifest naming a
// file outside the directory, or another segment's file, is refused
// before anything is opened (and later deleted by a merge).
func TestLoadManifestRejectsForeignFile(t *testing.T) {
	for _, file := range []string{"../x.seg", "/tmp/x.seg", "sub/" + segmentFileName(2), segmentFileName(4), "seg-2.seg"} {
		m := validManifest()
		m.Segments[0].File = file
		if _, err := loadCommitted(t, m); err == nil {
			t.Errorf("file %q for segment 2 accepted", file)
		}
	}
}

func TestLoadManifestRejectsUnorderedIDs(t *testing.T) {
	for _, ids := range [][2]uint64{{4, 2}, {2, 2}} {
		m := validManifest()
		for i, id := range ids {
			m.Segments[i].ID, m.Segments[i].File = id, segmentFileName(id)
		}
		if _, err := loadCommitted(t, m); err == nil {
			t.Errorf("segment IDs %v accepted", ids)
		}
	}
}

// next_id must exceed every live ID: otherwise a later flush or merge
// takes a live segment's ID and renames its file over that segment.
func TestLoadManifestRejectsStaleNextID(t *testing.T) {
	for _, next := range []uint64{4, 3} {
		m := validManifest()
		m.NextID = next
		if _, err := loadCommitted(t, m); err == nil {
			t.Errorf("next_id %d with live segment 4 accepted", next)
		}
	}
}

func TestLoadManifestRejectsNegativeCounts(t *testing.T) {
	m := validManifest()
	m.Segments[1].Docs = -1
	if _, err := loadCommitted(t, m); err == nil {
		t.Error("negative docs accepted")
	}
	m = validManifest()
	m.Segments[1].Bytes = -1
	if _, err := loadCommitted(t, m); err == nil {
		t.Error("negative bytes accepted")
	}
}
