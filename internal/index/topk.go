package index

import "slices"

// hitBetter is the ranking order: higher score first, DocID ascending as
// the deterministic tie-break. It is the single comparator shared by the
// bounded heap and the final sort, so top-k selection and full sorting
// agree exactly.
func hitBetter(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.DocID < b.DocID
}

// topK selects the k best hits (all of them when k <= 0) in ranking
// order. For bounded k it keeps a min-heap of the current best k — the
// root is the worst retained hit, so each additional candidate costs
// O(log k) and merging S parts' results never materializes more than
// k+1 entries beyond the inputs.
type topK struct {
	k    int
	heap []Hit // min-heap by hitBetter (root = worst retained)
	all  []Hit // used when k <= 0
}

// newTopK returns an empty selector for the k best of n hits; n sizes
// its one allocation.
func newTopK(k, n int) *topK {
	if k <= 0 {
		return &topK{k: k, all: make([]Hit, 0, n)}
	}
	return &topK{k: k, heap: make([]Hit, 0, min(k, n))}
}

func (t *topK) push(h Hit) {
	if t.k <= 0 {
		t.all = append(t.all, h)
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, h)
		t.up(len(t.heap) - 1)
		return
	}
	// Full: replace the root iff h ranks strictly better than the worst.
	if hitBetter(h, t.heap[0]) {
		t.heap[0] = h
		t.down(0)
	}
}

// results returns the retained hits in ranking order, sorting them in
// place: t is spent afterwards.
func (t *topK) results() []Hit {
	out := t.heap
	if t.k <= 0 {
		out = t.all
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b Hit) int {
		switch {
		case hitBetter(a, b):
			return -1
		case hitBetter(b, a):
			return 1
		}
		return 0
	})
	return out
}

// up restores the heap property from leaf i toward the root. The heap
// is ordered by "worse ranks closer to the root", i.e. parent must NOT
// rank better than child.
func (t *topK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !hitBetter(t.heap[parent], t.heap[i]) {
			break
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

// down restores the heap property from the root toward the leaves.
func (t *topK) down(i int) {
	n := len(t.heap)
	for {
		worst := i
		if l := 2*i + 1; l < n && hitBetter(t.heap[worst], t.heap[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && hitBetter(t.heap[worst], t.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}
