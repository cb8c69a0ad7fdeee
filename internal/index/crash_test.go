package index

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The crash tests back the recovery matrix in STORAGE.md §6 with a
// real SIGKILL: a child test process ingests into an index directory
// with aggressive flush and merge settings, the parent kills it -9 at
// an arbitrary point mid-flush/mid-merge, and recovery must (a) open
// cleanly — proving the manifest never references a torn segment,
// since open CRC-verifies every referenced file — (b) leave no
// temporary or orphaned files behind, (c) hold only real documents,
// each once, and (d) serve ranked results bit-identical to the
// brute-force model over exactly the recovered documents.

const (
	crashEnvDir  = "ETAP_INDEX_CRASH_DIR"
	crashCorpusN = 6000
	crashSeed    = 77
)

// crashOptions is the configuration both parent and child use: tiny
// flushes and a factor-2 merger keep the engine constantly inside
// flush and merge commit windows, which is where the kill lands.
func crashOptions(dir string) SegmentOptions {
	return SegmentOptions{Dir: dir, Writers: 2, FlushDocs: 25, MergeFactor: 2, CacheSize: -1}
}

// TestCrashChildProcess is the re-exec helper, not a test: it only
// runs when the parent sets the crash-dir environment variable. It
// ingests the deterministic corpus (skipping documents already
// recovered from a previous kill) until the parent's SIGKILL lands.
func TestCrashChildProcess(t *testing.T) {
	dir := os.Getenv(crashEnvDir)
	if dir == "" {
		t.Skip("crash-test helper; runs only under TestCrashRecoverySIGKILL")
	}
	si, err := OpenSegmentIndex(crashOptions(dir))
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	for _, d := range syntheticCorpus(crashCorpusN, crashSeed) {
		if si.Has(d.id) {
			continue
		}
		si.Add(d.id, d.text)
	}
	// Corpus exhausted before the kill landed: make everything durable
	// so the parent's recovery assertions still hold.
	if err := si.Close(); err != nil {
		t.Fatalf("child close: %v", err)
	}
}

// TestCrashRecoverySIGKILL kills a live child -9 several times —
// landing mid-flush and mid-merge thanks to the aggressive settings —
// and fully verifies recovery after each kill. Each round's child
// resumes in the same directory, so the test also covers
// crash → recover → continue → crash again.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and SIGKILLs child processes")
	}
	dir := t.TempDir()
	docs := syntheticCorpus(crashCorpusN, crashSeed)
	textOf := make(map[string]string, len(docs))
	for _, d := range docs {
		textOf[d.id] = d.text
	}
	rng := rand.New(rand.NewSource(crashSeed))

	for round := 0; round < 3; round++ {
		startGen := diskGeneration(t, dir)

		cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChildProcess$", "-test.count=1")
		cmd.Env = append(os.Environ(), crashEnvDir+"="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatalf("round %d: start child: %v", round, err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		// Let the child commit a few generations (flushes/merges), then
		// kill it at an arbitrary extra offset inside the commit churn.
		deadline := time.Now().Add(20 * time.Second)
		killed := false
		for !killed {
			select {
			case err := <-exited:
				// Finished the whole corpus before the kill: that run is
				// still a valid recovery input (it closed cleanly).
				if err != nil {
					t.Fatalf("round %d: child failed on its own: %v", round, err)
				}
				killed = true
			default:
				if diskGeneration(t, dir) >= startGen+3 {
					time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
					if err := cmd.Process.Kill(); err != nil {
						t.Fatalf("round %d: kill: %v", round, err)
					}
					<-exited // reaps; exit error "signal: killed" is the point
					killed = true
				} else if time.Now().After(deadline) {
					_ = cmd.Process.Kill()
					t.Fatalf("round %d: child never advanced the manifest", round)
				} else {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}

		verifyRecovery(t, dir, textOf, round)
	}
}

// diskGeneration reads the committed manifest generation straight off
// disk (0 when no manifest exists yet).
func diskGeneration(t *testing.T, dir string) uint64 {
	t.Helper()
	return diskManifest(t, dir).Generation
}

// diskManifest reads the committed manifest straight off disk.
func diskManifest(t *testing.T, dir string) manifest {
	t.Helper()
	m, err := loadManifest(dir)
	if err != nil {
		t.Fatalf("manifest unreadable mid-run: %v", err)
	}
	return m
}

// verifyRecovery opens the possibly-just-killed index and asserts the
// full recovery contract.
func verifyRecovery(t *testing.T, dir string, textOf map[string]string, round int) {
	t.Helper()

	// (a) Open must succeed: every manifest-referenced segment is
	// CRC-verified, so success proves no committed segment is torn.
	si, err := OpenSegmentIndex(crashOptions(dir))
	if err != nil {
		t.Fatalf("round %d: recovery open failed (torn commit?): %v", round, err)
	}
	defer si.Close()

	// (c) Every recovered document is a real one, exactly once.
	recovered := si.DocIDs()
	if len(recovered) != si.Len() {
		t.Fatalf("round %d: DocIDs %d vs Len %d", round, len(recovered), si.Len())
	}
	for i, id := range recovered {
		if i > 0 && recovered[i-1] == id {
			t.Fatalf("round %d: document %q recovered twice", round, id)
		}
		if _, ok := textOf[id]; !ok {
			t.Fatalf("round %d: recovered unknown document %q", round, id)
		}
	}

	// (d) Ranked results over the recovered set are bit-identical to
	// the model's over the same documents.
	m := newIndexModel()
	for _, id := range recovered {
		m.add(id, textOf[id])
	}
	for _, q := range goldenQueries {
		if got, want := si.Search(q, 20), m.search(ParseQuery(q), 20); !sameHits(got, want) {
			t.Fatalf("round %d: query %q diverges on recovered corpus", round, q)
		}
	}

	// (b) The open swept orphans: no temporaries, and every segment
	// file on disk is referenced by the manifest. Checked last, with
	// the index closed: while it is open, the merger the reopen kicks
	// may legitimately hold a temporary, or a renamed segment its
	// manifest commit does not reference yet.
	if err := si.Close(); err != nil {
		t.Fatalf("round %d: close after recovery: %v", round, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segFiles := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			t.Fatalf("round %d: temporary file %s survived recovery", round, e.Name())
		}
		if strings.HasSuffix(e.Name(), segmentSuffix) {
			segFiles++
		}
	}
	if committed := len(diskManifest(t, dir).Segments); segFiles != committed {
		t.Fatalf("round %d: %d segment files on disk, manifest commits %d", round, segFiles, committed)
	}
}

// TestOpenCleansOrphans backs the orphan rows of the crash matrix
// deterministically: a leftover temporary (killed mid-write) and an
// uncommitted segment file (killed between rename and manifest commit)
// must both be swept at open, while the committed index stays intact.
func TestOpenCleansOrphans(t *testing.T) {
	dir := t.TempDir()
	si, err := OpenSegmentIndex(SegmentOptions{Dir: dir, Writers: 1, FlushDocs: 10})
	if err != nil {
		t.Fatal(err)
	}
	docs := syntheticCorpus(40, 9)
	for _, d := range docs {
		si.Add(d.id, d.text)
	}
	if err := si.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the two interrupted-commit states.
	tmpOrphan := filepath.Join(dir, segmentFileName(900)+tmpSuffix)
	if err := os.WriteFile(tmpOrphan, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	segOrphan := filepath.Join(dir, segmentFileName(901))
	if err := os.WriteFile(segOrphan, []byte("renamed but never committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An unrelated file must be left alone.
	keep := filepath.Join(dir, "NOTES.txt")
	if err := os.WriteFile(keep, []byte("operator notes"), 0o644); err != nil {
		t.Fatal(err)
	}

	again, err := OpenSegmentIndex(SegmentOptions{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with orphans present: %v", err)
	}
	defer again.Close()
	if again.Len() != len(docs) {
		t.Fatalf("Len = %d after orphan sweep, want %d", again.Len(), len(docs))
	}
	for _, gone := range []string{tmpOrphan, segOrphan} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived open", gone)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("unrelated file was removed: %v", err)
	}
}
