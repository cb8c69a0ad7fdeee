// Package tenant turns the single global lead list into "millions of
// users each with their own lens": every tenant registers an ideal
// customer profile (ICP) — industries, size buckets, locations,
// keywords, the organizing principle of production lead-gen pipelines —
// and the serving layer filters and re-ranks leads against it
// (/leads?tenant=), while alert subscriptions carrying a tenant field
// compose the same ICP filter into fan-out.
//
// The package owns two pieces: the Registry (concurrency-safe ICP CRUD
// with JSONL persistence through the same revision-gated checkpointer
// discipline as the lead store) and the ICP matcher (Profile against
// knowledge-base records from internal/kb). Tenant reads are not
// memoized: the serving layer recomputes each one over the lead
// store's current snapshot.
package tenant

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"etap/internal/kb"
	"etap/internal/obs"
)

// Profile is one tenant's ideal customer profile. Empty criterion
// lists are wildcards; a zero profile matches every lead.
type Profile struct {
	// ID is assigned by the registry ("tenant-1", ...) unless the
	// creator supplies one.
	ID string `json:"id"`
	// Name is a display label.
	Name string `json:"name,omitempty"`
	// Industries are acceptable kb industries (matched
	// case-insensitively; stored lowercased).
	Industries []string `json:"industries,omitempty"`
	// SizeBuckets are acceptable kb size buckets (see kb.SizeBuckets).
	SizeBuckets []string `json:"sizeBuckets,omitempty"`
	// Locations are acceptable headquarters locations.
	Locations []string `json:"locations,omitempty"`
	// Keywords grade lead fit: the fraction found in the lead text or
	// the company's KB keywords feeds the ICP score. Never a hard
	// filter.
	Keywords []string `json:"keywords,omitempty"`
	// MinScore is the floor on the blended (rank + ICP) score; leads
	// below it are not served to this tenant.
	MinScore float64 `json:"minScore,omitempty"`
	// Quota caps the leads served per query to this tenant; 0 means no
	// tenant cap (the endpoint's own top cap still applies).
	Quota int `json:"quota,omitempty"`
	// Created is when the profile entered the registry (Unix seconds).
	Created int64 `json:"created"`
}

// Validate rejects profiles the matcher cannot act on.
func (p Profile) Validate() error {
	if p.MinScore < 0 || p.MinScore > 1 {
		return errors.New("tenant: minScore must be in [0, 1]")
	}
	if p.Quota < 0 {
		return errors.New("tenant: quota must be >= 0")
	}
	for _, b := range p.SizeBuckets {
		ok := false
		for _, known := range kb.SizeBuckets {
			if strings.EqualFold(b, known) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("tenant: unknown size bucket %q (want one of %s)",
				b, strings.Join(kb.SizeBuckets, ", "))
		}
	}
	return nil
}

// normalize lowercases, sorts, and dedups the criterion lists so
// matching is case-insensitive and two equivalent profiles serialize
// identically.
func (p Profile) normalize() Profile {
	p.Industries = normList(p.Industries)
	p.SizeBuckets = normList(p.SizeBuckets)
	p.Locations = normList(p.Locations)
	p.Keywords = normList(p.Keywords)
	return p
}

func normList(ss []string) []string {
	if len(ss) == 0 {
		return nil
	}
	seen := map[string]bool{}
	out := make([]string, 0, len(ss))
	for _, s := range ss {
		s = strings.ToLower(strings.TrimSpace(s))
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	sort.Strings(out)
	if len(out) == 0 {
		return nil
	}
	return out
}

// ErrUnknownTenant reports an ID the registry does not hold.
var ErrUnknownTenant = errors.New("tenant: unknown tenant")

// Config tunes a Registry. The zero value selects the defaults noted
// per field.
type Config struct {
	// Clock supplies Created timestamps; nil means time.Now. Tests
	// inject a fixed clock for determinism.
	Clock func() time.Time
	// Registry receives the etap_tenant_* series; nil means
	// obs.Default.
	Registry *obs.Registry
}

// Registry is the concurrency-safe tenant store: ICP CRUD, per-profile
// revisions, and JSONL persistence compatible with the labeled
// checkpointer (Revision/SaveFile).
type Registry struct {
	clock func() time.Time

	mu    sync.RWMutex
	byID  map[string]Profile
	revs  map[string]uint64 // per-profile revision (from revSeq)
	order []string          // insertion order, for deterministic listing
	next  int               // next auto-assigned ID suffix
	rev   uint64            // mutation count, for revision-gated checkpoints

	// revSeq feeds per-profile revisions from one monotonic stream, so
	// a deleted-then-recreated tenant never reuses a revision.
	revSeq uint64

	profiles  *obs.Gauge
	mutations *obs.Counter
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.Clock == nil {
		//etaplint:ignore determinism -- wall-clock default for production; tests inject a fixed Clock
		cfg.Clock = time.Now
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	r := &Registry{
		clock: cfg.Clock,
		byID:  make(map[string]Profile),
		revs:  make(map[string]uint64),
		profiles: reg.Gauge("etap_tenant_profiles",
			"Tenant ICP profiles currently registered."),
		mutations: reg.Counter("etap_tenant_mutations_total",
			"Tenant registry mutations (create, update, delete)."),
	}
	return r
}

// insertLocked stores a profile and stamps its revision. Caller holds
// mu and has resolved ID collisions.
func (r *Registry) insertLocked(p Profile) {
	r.byID[p.ID] = p
	r.order = append(r.order, p.ID)
	r.revSeq++
	r.revs[p.ID] = r.revSeq
	r.profiles.Set(int64(len(r.order)))
}

// ErrIDsExhausted reports that automatic ID assignment has reached the
// largest "tenant-N" suffix; profiles can still be added with an ID.
var ErrIDsExhausted = errors.New("tenant: automatic IDs exhausted; supply an ID")

// Add inserts a profile, assigning an ID when none is supplied, and
// returns the stored (normalized) value. A duplicate ID is an error.
func (r *Registry) Add(p Profile) (Profile, error) {
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	p = p.normalize()
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.ID == "" {
		for {
			// The counter never wraps: a loaded "tenant-<MaxInt>" would
			// otherwise make the next ID "tenant--9223372036854775808".
			if r.next == math.MaxInt {
				return Profile{}, ErrIDsExhausted
			}
			r.next++
			p.ID = fmt.Sprintf("tenant-%d", r.next)
			if _, taken := r.byID[p.ID]; !taken {
				break
			}
		}
	} else if _, dup := r.byID[p.ID]; dup {
		return Profile{}, fmt.Errorf("tenant: profile %q already exists", p.ID)
	}
	if p.Created == 0 {
		p.Created = r.clock().Unix()
	}
	r.insertLocked(p)
	r.rev++
	r.mutations.Inc()
	return p, nil
}

// Get returns the profile with the given ID and its revision, which
// every update to the profile bumps.
func (r *Registry) Get(id string) (Profile, uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.byID[id]
	if !ok {
		return Profile{}, 0, fmt.Errorf("%s: %w", id, ErrUnknownTenant)
	}
	return p, r.revs[id], nil
}

// Update replaces a profile's ICP in place, preserving its ID and
// Created stamp, and bumps its revision. Reads after it returns see
// only the new ICP.
func (r *Registry) Update(id string, p Profile) (Profile, error) {
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	p = p.normalize()
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.byID[id]
	if !ok {
		return Profile{}, fmt.Errorf("%s: %w", id, ErrUnknownTenant)
	}
	p.ID = old.ID
	p.Created = old.Created
	r.byID[id] = p
	r.revSeq++
	r.revs[id] = r.revSeq
	r.rev++
	r.mutations.Inc()
	return p, nil
}

// Delete removes a profile.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		return fmt.Errorf("%s: %w", id, ErrUnknownTenant)
	}
	delete(r.byID, id)
	delete(r.revs, id)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.rev++
	r.mutations.Inc()
	r.profiles.Set(int64(len(r.order)))
	return nil
}

// List returns all profiles in insertion order.
func (r *Registry) List() []Profile {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Profile, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}

// Len returns the profile count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}

// Revision returns the mutation count: a checkpointer can skip saves
// when it hasn't moved.
func (r *Registry) Revision() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rev
}

// writeJSONLLocked streams every profile in insertion order. Caller
// holds at least the read lock.
func (r *Registry) writeJSONLLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, id := range r.order {
		if err := enc.Encode(r.byID[id]); err != nil {
			return fmt.Errorf("tenant: encoding profile %s: %w", id, err)
		}
	}
	return bw.Flush()
}

// WriteJSONL streams every profile, in insertion order, one JSON
// object per line.
func (r *Registry) WriteJSONL(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.writeJSONLLocked(w)
}

// ReadRegistry loads a registry from a JSONL stream. It accepts only
// profiles Add would accept: an invalid one is an error naming its
// line. Duplicate IDs keep the first occurrence; auto-assignment
// resumes past the highest "tenant-N" seen. Profiles are re-normalized
// on load so checkpoints from older builds match like freshly created
// ones.
func ReadRegistry(rd io.Reader, cfg Config) (*Registry, error) {
	r := NewRegistry(cfg)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var p Profile
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			return nil, fmt.Errorf("tenant: line %d: %w", line, err)
		}
		if p.ID == "" {
			return nil, fmt.Errorf("tenant: line %d: profile without ID", line)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("tenant: line %d: %w", line, err)
		}
		if _, dup := r.byID[p.ID]; dup {
			continue
		}
		r.insertLocked(p.normalize())
		var n int
		if _, err := fmt.Sscanf(p.ID, "tenant-%d", &n); err == nil && n > r.next {
			r.next = n
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tenant: reading profiles: %w", err)
	}
	return r, nil
}

// SaveFile writes the registry to path atomically (write + rename) and
// returns the revision the snapshot captured — the labeled
// checkpointer's dump signature.
func (r *Registry) SaveFile(path string) (uint64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rev := r.rev
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err := r.writeJSONLLocked(f); err != nil {
		//etaplint:ignore error-swallowing -- best-effort cleanup on an already-failing path; the write error is what the caller needs
		f.Close()
		//etaplint:ignore error-swallowing -- best-effort cleanup on an already-failing path; the write error is what the caller needs
		os.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		//etaplint:ignore error-swallowing -- best-effort cleanup on an already-failing path; the close error is what the caller needs
		os.Remove(tmp)
		return 0, err
	}
	return rev, os.Rename(tmp, path)
}

// LoadFile reads a registry previously written with SaveFile. A
// missing file yields an empty registry (first run).
func LoadFile(path string, cfg Config) (*Registry, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return NewRegistry(cfg), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadRegistry(f, cfg)
}
