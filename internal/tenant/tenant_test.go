package tenant

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"etap/internal/kb"
	"etap/internal/obs"
)

func fixedClock() time.Time { return time.Unix(1_700_000_000, 0) }

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	return NewRegistry(Config{Clock: fixedClock, Registry: obs.NewRegistry()})
}

func TestRegistryCRUD(t *testing.T) {
	r := testRegistry(t)
	p, err := r.Add(Profile{Name: "Acme Sales", Industries: []string{"Healthcare", "healthcare", " Retail "}})
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != "tenant-1" {
		t.Fatalf("auto ID = %q, want tenant-1", p.ID)
	}
	if p.Created != fixedClock().Unix() {
		t.Fatalf("Created = %d, want the injected clock", p.Created)
	}
	if got := len(p.Industries); got != 2 {
		t.Fatalf("industries not deduped: %v", p.Industries)
	}
	if p.Industries[0] != "healthcare" || p.Industries[1] != "retail" {
		t.Fatalf("industries not normalized: %v", p.Industries)
	}

	got, rev1, err := r.Get("tenant-1")
	if err != nil || got.Name != "Acme Sales" {
		t.Fatalf("Get = %+v, %v", got, err)
	}

	upd, err := r.Update("tenant-1", Profile{Name: "Acme EMEA", Locations: []string{"London"}})
	if err != nil {
		t.Fatal(err)
	}
	if upd.ID != "tenant-1" || upd.Created != p.Created {
		t.Fatalf("update must preserve ID and Created: %+v", upd)
	}
	_, rev2, err := r.Get("tenant-1")
	if err != nil {
		t.Fatal(err)
	}
	if rev2 <= rev1 {
		t.Fatalf("update did not bump the profile revision: %d -> %d", rev1, rev2)
	}

	if _, err := r.Add(Profile{ID: "tenant-1"}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := r.Delete("tenant-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("tenant-1"); err == nil {
		t.Fatal("double delete succeeded")
	}
	if _, _, err := r.Get("tenant-1"); err == nil {
		t.Fatal("Get after delete succeeded")
	}
	// Recreating the ID must not resurrect the old revision stream.
	if _, err := r.Add(Profile{ID: "tenant-1"}); err != nil {
		t.Fatal(err)
	}
	_, rev3, _ := r.Get("tenant-1")
	if rev3 <= rev2 {
		t.Fatalf("recreated tenant reused an old revision: %d <= %d", rev3, rev2)
	}
}

func TestProfileValidate(t *testing.T) {
	r := testRegistry(t)
	if _, err := r.Add(Profile{MinScore: 1.5}); err == nil {
		t.Fatal("minScore > 1 accepted")
	}
	if _, err := r.Add(Profile{Quota: -1}); err == nil {
		t.Fatal("negative quota accepted")
	}
	if _, err := r.Add(Profile{SizeBuckets: []string{"gigantic"}}); err == nil {
		t.Fatal("unknown size bucket accepted")
	}
	if _, err := r.Add(Profile{SizeBuckets: []string{"Enterprise"}}); err != nil {
		t.Fatalf("case-insensitive size bucket rejected: %v", err)
	}
}

func TestRegistryPersistence(t *testing.T) {
	r := testRegistry(t)
	if _, err := r.Add(Profile{Name: "A", Industries: []string{"retail"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(Profile{Name: "B", SizeBuckets: []string{"large"}, Quota: 5}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tenants.jsonl")
	rev, err := r.SaveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rev != r.Revision() {
		t.Fatalf("SaveFile rev %d, registry rev %d", rev, r.Revision())
	}
	loaded, err := LoadFile(path, Config{Clock: fixedClock, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d profiles, want 2", loaded.Len())
	}
	var want, got bytes.Buffer
	if err := r.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", want.String(), got.String())
	}
	// Auto-assignment resumes past the highest persisted ID.
	p, err := loaded.Add(Profile{Name: "C"})
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != "tenant-3" {
		t.Fatalf("resumed auto ID = %q, want tenant-3", p.ID)
	}

	// Missing file is a clean first run.
	empty, err := LoadFile(filepath.Join(t.TempDir(), "absent.jsonl"), Config{Clock: fixedClock, Registry: obs.NewRegistry()})
	if err != nil || empty.Len() != 0 {
		t.Fatalf("missing file: %v, %d profiles", err, empty.Len())
	}
}

func TestMatchCompany(t *testing.T) {
	c := &kb.Company{
		Key: "halcyon", Name: "Halcyon Systems", Industry: "healthcare",
		Employees: 5000, SizeBucket: "large", HQ: "New York",
		Keywords: []string{"clinical", "patients", "cloud"},
	}
	cases := []struct {
		name string
		p    Profile
		want bool
	}{
		{"zero profile matches", Profile{}, true},
		{"industry hit", Profile{Industries: []string{"healthcare"}}, true},
		{"industry miss", Profile{Industries: []string{"retail"}}, false},
		{"size hit", Profile{SizeBuckets: []string{"large", "enterprise"}}, true},
		{"size miss", Profile{SizeBuckets: []string{"micro"}}, false},
		{"location case-insensitive", Profile{Locations: []string{"new york"}}, true},
		{"location miss", Profile{Locations: []string{"Tokyo"}}, false},
		{"all criteria", Profile{Industries: []string{"healthcare"}, SizeBuckets: []string{"large"}, Locations: []string{"new york"}}, true},
		{"one bad criterion fails", Profile{Industries: []string{"healthcare"}, SizeBuckets: []string{"micro"}}, false},
	}
	for _, tc := range cases {
		if got := tc.p.normalize().MatchCompany(c); got != tc.want {
			t.Fatalf("%s: MatchCompany = %v, want %v", tc.name, got, tc.want)
		}
	}
	// No KB record: fails any categorical criterion, passes a zero profile.
	if (Profile{Industries: []string{"retail"}}).normalize().MatchCompany(nil) {
		t.Fatal("nil company passed an industry criterion")
	}
	if !(Profile{}).MatchCompany(nil) {
		t.Fatal("nil company failed a zero profile")
	}
}

func TestScore(t *testing.T) {
	c := &kb.Company{
		Key: "halcyon", Industry: "healthcare", SizeBucket: "large",
		HQ: "New York", Keywords: []string{"clinical", "cloud"},
	}
	// Zero profile: every component contributes its full weight.
	if got := (Profile{}).Score(c, ""); got != 1.0 {
		t.Fatalf("zero profile score = %v, want 1", got)
	}
	// Keywords: one of two found (in KB keywords), categorical empty.
	p := Profile{Keywords: []string{"cloud", "blockchain"}}.normalize()
	want := weightIndustry + weightSize + weightLocation + weightKeywords*0.5
	if got := p.Score(c, "quarterly report"); got != want {
		t.Fatalf("keyword score = %v, want %v", got, want)
	}
	// Keyword found in lead text instead of KB record.
	p = Profile{Keywords: []string{"merger"}}.normalize()
	if got := p.Score(c, "Halcyon announced a MERGER today"); got != 1.0 {
		t.Fatalf("text keyword score = %v, want 1", got)
	}
	// Categorical miss loses exactly that weight.
	p = Profile{Industries: []string{"retail"}}.normalize()
	if got := p.Score(c, ""); got != 1.0-weightIndustry {
		t.Fatalf("industry miss score = %v, want %v", got, 1.0-weightIndustry)
	}
	// Determinism: same inputs, same score.
	p = Profile{Industries: []string{"healthcare"}, Keywords: []string{"clinical", "saas"}}.normalize()
	if a, b := p.Score(c, "text"), p.Score(c, "text"); a != b {
		t.Fatalf("score not deterministic: %v vs %v", a, b)
	}
}

// TestReadRegistryRejectsInvalidProfile pins the loader to what Add
// accepts: a checkpoint line Validate rejects fails the load, and the
// error names the line.
func TestReadRegistryRejectsInvalidProfile(t *testing.T) {
	in := `{"id":"tenant-1","industries":["retail"]}
{"id":"t1","minScore":5,"quota":-1,"sizeBuckets":["gigantic"]}
`
	_, err := ReadRegistry(strings.NewReader(in), Config{Clock: fixedClock, Registry: obs.NewRegistry()})
	if err == nil {
		t.Fatal("loaded a profile Add rejects")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the line: %v", err)
	}
}

// TestReadRegistryIDCounterNeverWraps loads the largest "tenant-N" ID:
// automatic assignment must then refuse rather than wrap to a negative
// suffix, while an explicit ID still works.
func TestReadRegistryIDCounterNeverWraps(t *testing.T) {
	in := fmt.Sprintf(`{"id":"tenant-%d"}`+"\n", math.MaxInt)
	r, err := ReadRegistry(strings.NewReader(in), Config{Clock: fixedClock, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := r.Add(Profile{}); !errors.Is(err, ErrIDsExhausted) {
		t.Fatalf("Add after tenant-MaxInt = %q, %v; want ErrIDsExhausted", p.ID, err)
	}
	if _, err := r.Add(Profile{ID: "acme"}); err != nil {
		t.Fatalf("explicit ID refused: %v", err)
	}
}
