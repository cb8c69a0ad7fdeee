package feature

import (
	"math"
	"slices"
)

// Vocab is a bijective mapping between feature strings and dense integer
// ids. It is not safe for concurrent mutation.
type Vocab struct {
	byName map[string]int
	names  []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{byName: make(map[string]int)}
}

// ID interns name, returning its id (adding it if new).
func (v *Vocab) ID(name string) int {
	if id, ok := v.byName[name]; ok {
		return id
	}
	id := len(v.names)
	v.byName[name] = id
	v.names = append(v.names, name)
	return id
}

// Lookup returns the id of name without adding it.
func (v *Vocab) Lookup(name string) (int, bool) {
	id, ok := v.byName[name]
	return id, ok
}

// Name returns the feature string for id.
func (v *Vocab) Name(id int) string { return v.names[id] }

// Size returns the number of interned features.
func (v *Vocab) Size() int { return len(v.names) }

// Names returns every interned feature in id order (for serialization).
func (v *Vocab) Names() []string { return append([]string(nil), v.names...) }

// VocabFromNames rebuilds a vocabulary with the exact id assignment of
// the given name list (names[i] gets id i).
func VocabFromNames(names []string) *Vocab {
	v := NewVocab()
	for _, n := range names {
		v.ID(n)
	}
	return v
}

// Term is one (feature id, count/weight) pair of a sparse vector.
type Term struct {
	ID int
	W  float64
}

// Vector is a sparse feature vector, sorted by feature id with unique ids.
type Vector []Term

// Vectorize converts a feature-string list into a count vector. When grow
// is true unknown features are added to the vocabulary; otherwise they
// are silently skipped (the correct behaviour at inference time).
func Vectorize(v *Vocab, feats []string, grow bool) Vector {
	return AppendVector(nil, new([]int), v, feats, grow)
}

// AppendVector appends the terms of the vector Vectorize returns to dst
// and returns the extended slice. *ids is scratch space for the feature
// ids, grown as needed and kept there, so a caller that reuses both
// buffers vectorizes without allocating.
func AppendVector(dst Vector, ids *[]int, v *Vocab, feats []string, grow bool) Vector {
	buf := slices.Grow((*ids)[:0], len(feats))
	for _, f := range feats {
		if grow {
			buf = append(buf, v.ID(f))
		} else if id, ok := v.Lookup(f); ok {
			buf = append(buf, id)
		}
	}
	*ids = buf
	// Sorting the ids puts repeats side by side: each run is one term
	// whose weight is the run length.
	slices.Sort(buf)
	terms := 0
	for i := range buf {
		if i == 0 || buf[i] != buf[i-1] {
			terms++
		}
	}
	if dst == nil {
		dst = make(Vector, 0, terms) // empty, not nil, as Vectorize has always returned
	} else {
		dst = slices.Grow(dst, terms)
	}
	for i := 0; i < len(buf); {
		j := i + 1
		for j < len(buf) && buf[j] == buf[i] {
			j++
		}
		dst = append(dst, Term{ID: buf[i], W: float64(j - i)})
		i = j
	}
	return dst
}

// L2Norm returns the Euclidean norm of the vector.
func (x Vector) L2Norm() float64 {
	s := 0.0
	for _, t := range x {
		s += t.W * t.W
	}
	return math.Sqrt(s)
}

// Dot computes the sparse dot product of two sorted vectors.
func (x Vector) Dot(y Vector) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i].ID == y[j].ID:
			s += x[i].W * y[j].W
			i++
			j++
		case x[i].ID < y[j].ID:
			i++
		default:
			j++
		}
	}
	return s
}

// Scale returns a copy of the vector with every weight multiplied by a.
func (x Vector) Scale(a float64) Vector {
	out := make(Vector, len(x))
	for i, t := range x {
		out[i] = Term{ID: t.ID, W: t.W * a}
	}
	return out
}
