// Blended ranking: combining the corpus-driven lead score with a
// tenant's ICP-fit score into one ordering. Kept in rank (not tenant)
// because it is pure scoring arithmetic with the same determinism
// contract as ByScore: equal inputs produce an identical order, with
// snippet-ID tie-breaks.
package rank

import "sort"

// BlendWeights sets the mix between the base lead score and the ICP
// score. Weights are used as given; DefaultBlend is the production mix.
type BlendWeights struct {
	// Base multiplies the lead's rank score.
	Base float64
	// ICP multiplies the tenant's ICP-fit score.
	ICP float64
}

// DefaultBlend favors evidence strength over profile fit: a strong
// trigger event at a mediocre-fit company still outranks a weak event
// at a perfect-fit one.
var DefaultBlend = BlendWeights{Base: 0.6, ICP: 0.4}

// Blend combines a base score and an ICP score under the given weights.
func Blend(base, icp float64, w BlendWeights) float64 {
	return w.Base*base + w.ICP*icp
}

// BlendRanked is an event with its tenant-scoped scores and final rank.
type BlendRanked struct {
	Event
	// Rank is the 1-based position in the blended order.
	Rank int `json:"rank"`
	// ICP is the tenant's ICP-fit score for this event's company.
	ICP float64 `json:"icp"`
	// Blended is the combined score the order sorts by.
	Blended float64 `json:"blended"`
}

// ByBlend orders events by blended score, descending. icp supplies the
// ICP-fit score per event. Ties break by base score (descending), then
// snippet ID (ascending), so the order is deterministic for equal
// inputs.
func ByBlend(events []Event, icp func(Event) float64, w BlendWeights) []BlendRanked {
	out := make([]BlendRanked, 0, len(events))
	for _, ev := range events {
		fit := icp(ev)
		out = append(out, BlendRanked{
			Event:   ev,
			ICP:     fit,
			Blended: Blend(ev.Score, fit, w),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return BlendBefore(&out[i], &out[j]) })
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// BlendBefore reports whether a ranks ahead of b in ByBlend's order:
// higher blended score first, then higher base score, then smaller
// snippet ID. Snippet IDs are unique in a lead store, so over its leads
// the order is total and the first k of it are the same k however
// they are found.
func BlendBefore(a, b *BlendRanked) bool {
	if a.Blended != b.Blended {
		return a.Blended > b.Blended
	}
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.SnippetID < b.SnippetID
}
