package core

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"etap/internal/annotate"
	"etap/internal/feature"
	"etap/internal/ner"
	"etap/internal/rank"
	"etap/internal/snippet"
	"etap/internal/textproc"
	"etap/internal/web"
)

// scorer is the trained drivers in sorted-ID order with their distinct
// abstraction policies, each compiled against the feature table:
// drivers that share a policy share the feature ids it abstracts, so a
// snippet is abstracted once per policy, not once per driver.
// AddDriver and ImportDriver rebuild it after growing the table;
// extraction and Score only read it.
type scorer struct {
	drivers  []*trainedDriver
	policies []*feature.Compiled
	policyOf []int // drivers[d] abstracts with policies[policyOf[d]]
}

// scorer returns the scorer of the drivers trained so far.
func (s *System) scorer() *scorer { return s.sc.Load() }

// rebuildScorer replaces the scorer after the driver set changed.
func (s *System) rebuildScorer() {
	ids := s.Drivers()
	sort.Strings(ids)
	sc := &scorer{}
	var policies []feature.Policy
	for _, id := range ids {
		td := s.drivers[id]
		k := slices.IndexFunc(policies, func(p feature.Policy) bool { return maps.Equal(p, td.policy) })
		if k < 0 {
			k = len(policies)
			policies = append(policies, td.policy)
			sc.policies = append(sc.policies, s.table.Compile(td.policy))
		}
		sc.drivers = append(sc.drivers, td)
		sc.policyOf = append(sc.policyOf, k)
	}
	s.sc.Store(sc)
}

// prob classifies the snippet abstracted in w for driver d.
func (sc *scorer) prob(w *scratch, d int) float64 {
	td := sc.drivers[d]
	w.vec = td.proj.AppendVector(w.vec[:0], &w.counts, w.feats[sc.policyOf[d]])
	return td.clf.Prob(w.vec)
}

// scratch is one worker's memory for the scoring kernel, reused from
// snippet to snippet and, through scratchPool, from page to page: one
// page's sentences and snippets, one snippet's units and lower-cased
// words, its feature ids under each policy, one driver's vector, and
// the events scored since the scratch was taken.
type scratch struct {
	sents  []textproc.Sentence
	snips  []snippet.Snippet
	units  []annotate.Unit
	words  []string  // the snippet's word tokens, lower-cased, for orientation
	feats  [][]int32 // feats[k] is the snippet under policies[k]
	counts feature.Counts
	vec    feature.Vector
	events []rank.Event // in (snippet, driver) order
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes an empty scratch from the pool with a feature list
// for every policy of sc.
func getScratch(sc *scorer) *scratch {
	w := scratchPool.Get().(*scratch)
	for len(w.feats) < len(sc.policies) {
		w.feats = append(w.feats, nil)
	}
	return w
}

// release empties w and returns it to the pool. Sentences, snippets,
// units and events hold strings that alias pages, so every slot up to
// each buffer's capacity is cleared: a pooled scratch keeps no page
// reachable.
func (w *scratch) release() {
	clear(w.sents[:cap(w.sents)])
	w.sents = w.sents[:0]
	clear(w.snips[:cap(w.snips)])
	w.snips = w.snips[:0]
	clear(w.units[:cap(w.units)])
	w.units = w.units[:0]
	clear(w.words[:cap(w.words)])
	w.words = w.words[:0]
	clear(w.events[:cap(w.events)])
	w.events = w.events[:0]
	scratchPool.Put(w)
}

// scorePage is the scoring kernel behind every extraction entry point.
// It splits page into snippets and takes each through annotation,
// abstraction once per distinct policy of sc, and classification by
// every driver of sc, all in w's buffers. Snippets at or above
// threshold are appended to w.events as trigger events, in (snippet,
// driver) order; the subject company is the snippet's first ORG entity
// (when any). Every value is computed as it would be with fresh memory,
// so outputs do not depend on what w held before.
//
// When metrics are enabled it observes the snippet stage once per page
// and the annotate stage once per snippet, counts snippets scored and
// events emitted, and observes the classify stage once per driver per
// snippet: the driver's own scoring plus an equal share of the
// snippet's feature abstraction.
func (s *System) scorePage(sc *scorer, w *scratch, page *web.Page, threshold float64) {
	m := s.met
	var t time.Time
	if m != nil {
		t = time.Now()
	}
	w.snips = snippet.Generator{N: s.cfg.SnippetN}.AppendSplit(w.snips[:0], &w.sents, page.URL, page.Text)
	if m != nil {
		m.snippetDur.Observe(time.Since(t).Seconds())
	}
	for i := range w.snips {
		sn := &w.snips[i]
		if m != nil {
			t = time.Now()
		}
		w.units, w.words = s.ann.AppendUnitsAndWords(w.units[:0], w.words[:0], sn.Text)
		if m != nil {
			now := time.Now()
			m.annotateDur.Observe(now.Sub(t).Seconds())
			t = now
		}
		for k, p := range sc.policies {
			w.feats[k] = p.AppendIDs(w.feats[k][:0], w.units)
		}
		var abstractShare time.Duration
		if m != nil {
			abstractShare = time.Since(t) / time.Duration(len(sc.drivers))
		}
		for d, td := range sc.drivers {
			if m != nil {
				t = time.Now()
			}
			p := sc.prob(w, d)
			if m != nil {
				m.classifyDur.Observe((time.Since(t) + abstractShare).Seconds())
				m.snippets.Inc()
			}
			if p < threshold {
				continue
			}
			if m != nil {
				m.events.Inc()
			}
			ev := rank.Event{
				SnippetID: snippet.ID(page.URL, sn.Index),
				Text:      sn.Text,
				Driver:    td.spec.ID,
				Score:     p,
				Company:   firstOrg(w.units),
			}
			if td.spec.Orientation != nil {
				ev.Orientation = td.spec.Orientation.ScoreWords(w.words)
			}
			w.events = append(w.events, ev)
		}
	}
}

// appendDriverEvents appends the events of events that belong to
// driverID to dst, in order.
func appendDriverEvents(dst, events []rank.Event, driverID string) []rank.Event {
	for _, ev := range events {
		if ev.Driver == driverID {
			dst = append(dst, ev)
		}
	}
	return dst
}

func firstOrg(units []annotate.Unit) string {
	for _, u := range units {
		if u.Entity == ner.ORG {
			return u.Text
		}
	}
	return ""
}
