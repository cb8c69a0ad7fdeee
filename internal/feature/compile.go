package feature

import (
	"math"
	"math/bits"
	"slices"

	"etap/internal/annotate"
	"etap/internal/ner"
	"etap/internal/pos"
	"etap/internal/textproc"
)

// coarseTags are the coarse part-of-speech tags Tag.Coarse returns:
// with the 13 entity categories, every category annotation produces.
var coarseTags = []pos.Tag{
	pos.TagNN, pos.TagNP, pos.TagVB, pos.TagJJ, pos.TagRB, pos.TagPRP,
	pos.TagIN, pos.TagDT, pos.TagCC, pos.TagCD, pos.TagTO, pos.TagEX,
	pos.TagWDT, pos.TagWP, pos.TagWRB, pos.TagPOS, pos.TagUH, pos.TagSym,
	pos.TagPct,
}

// numDense is the number of categories with a dense index: the entity
// categories in ner.Categories order, then coarseTags.
const numDense = 13 + 19

// denseCategory is the category of dense index k.
func denseCategory(k int) Category {
	if k < len(ner.Categories) {
		return EntityCategory(ner.Categories[k])
	}
	return POSCategory(coarseTags[k-len(ner.Categories)])
}

// denseIndex returns the dense index of u's category, or -1 for a
// category annotation never produces (only a unit built by hand has
// one).
func denseIndex(u *annotate.Unit) int {
	if u.Entity != "" {
		switch u.Entity {
		case ner.ORG:
			return 0
		case ner.DESIG:
			return 1
		case ner.OBJ:
			return 2
		case ner.TIM:
			return 3
		case ner.PERIOD:
			return 4
		case ner.CURRENCY:
			return 5
		case ner.YEAR:
			return 6
		case ner.PRCNT:
			return 7
		case ner.PROD:
			return 8
		case ner.PLC:
			return 9
		case ner.PRSN:
			return 10
		case ner.LNGTH:
			return 11
		case ner.CNT:
			return 12
		}
		return -1
	}
	switch u.POS {
	case pos.TagNN:
		return 13
	case pos.TagNP:
		return 14
	case pos.TagVB:
		return 15
	case pos.TagJJ:
		return 16
	case pos.TagRB:
		return 17
	case pos.TagPRP:
		return 18
	case pos.TagIN:
		return 19
	case pos.TagDT:
		return 20
	case pos.TagCC:
		return 21
	case pos.TagCD:
		return 22
	case pos.TagTO:
		return 23
	case pos.TagEX:
		return 24
	case pos.TagWDT:
		return 25
	case pos.TagWP:
		return 26
	case pos.TagWRB:
		return 27
	case pos.TagPOS:
		return 28
	case pos.TagUH:
		return 29
	case pos.TagSym:
		return 30
	case pos.TagPct:
		return 31
	}
	return -1
}

// Compiled is a policy compiled against a table: what abstraction does
// with each category, in arrays indexed by dense category, so that
// abstracting a unit probes no map for its representation or its
// presence-absence feature. Compile a policy once per table state:
// scoring reads the presence-absence ids the table held at compile
// time, and training interns them as they first occur.
type Compiled struct {
	t   *Table
	rep [numDense]int8  // the category's Representation, -1 when the policy omits it
	pa  [numDense]int32 // a RepPA category's feature id, -1 when the table lacks it
}

// Compile compiles p against t.
func (t *Table) Compile(p Policy) *Compiled {
	c := &Compiled{t: t}
	for k := range c.rep {
		c.rep[k], c.pa[k] = -1, -1
		cat := denseCategory(k)
		if r, ok := p[cat]; ok {
			c.rep[k] = int8(r)
			if r == RepPA {
				c.pa[k] = t.paID(cat, false)
			}
		}
	}
	return c
}

// AppendIDs appends the features of an annotated snippet under the
// compiled policy to dst as table ids and returns the extended slice,
// without growing the table:
//
//   - RepPA categories contribute their presence-absence feature once,
//     when at least one instance is present;
//   - RepIV categories contribute one feature per instance occurrence:
//     the stem of a POS category's word, the lower-cased text of an
//     entity;
//   - stop words never become instance-valued features.
//
// Features the table does not hold are left out, and so is a unit of a
// category annotation never produces. A word unit's stem and stop-word
// flag come from its entry (Unit.Word).
func (c *Compiled) AppendIDs(dst []int32, units []annotate.Unit) []int32 {
	return c.appendIDs(dst, units, false)
}

// AppendInterned is AppendIDs adding the features the table does not
// hold yet, for training. It must not run concurrently with anything
// else that uses the table or c.
func (c *Compiled) AppendInterned(dst []int32, units []annotate.Unit) []int32 {
	return c.appendIDs(dst, units, true)
}

func (c *Compiled) appendIDs(dst []int32, units []annotate.Unit, grow bool) []int32 {
	// pa holds the presence-absence ids emitted so far — at most one
	// per category, so a scan beats a map.
	var paBuf [16]int32
	pa := paBuf[:0]
	for i := range units {
		u := &units[i]
		k := denseIndex(u)
		if k < 0 || c.rep[k] < 0 {
			continue
		}
		rep := Representation(c.rep[k])
		id := int32(-1)
		switch {
		case rep == RepPA:
			if c.pa[k] < 0 && grow {
				c.pa[k] = c.t.paID(denseCategory(k), true)
			}
			id = c.pa[k]
			if id < 0 || slices.Contains(pa, id) {
				continue
			}
			pa = append(pa, id)
		case rep == RepIV && u.IsEntity():
			id = c.t.entityID(u.Entity, u.Lower(), grow)
		case rep == RepIV:
			w := u.Word
			if w == nil {
				w = textproc.Lookup(u.Text)
			}
			if !w.Stop {
				id = c.t.wordID(w.Stem, grow)
			}
		}
		if id >= 0 {
			dst = append(dst, id)
		}
	}
	return dst
}

// Counts is AppendVector's scratch: a count per vocabulary id and a
// bit per id counted, both zero between calls, so a caller that keeps
// one vectorizes without allocating.
type Counts struct {
	n    []float64
	bits []uint64 // bit v is set when n[v] > 0
}

// grow makes room for vocabulary id v.
func (c *Counts) grow(v int) {
	n := slices.Grow(c.n, v+1-len(c.n))
	c.n = n[:cap(n)]
	words := len(c.n)>>6 + 1
	c.bits = slices.Grow(c.bits, words-len(c.bits))[:words]
}

// AppendVector appends the count vector of the features ids (table
// ids) over the projection's vocabulary to dst and returns the
// extended slice: Vectorize of their names without growing. The terms
// come out in vocabulary order from the set bits of c, without a sort.
func (p Projection) AppendVector(dst Vector, c *Counts, ids []int32) Vector {
	lo, hi, terms := math.MaxInt, -1, 0
	for _, id := range ids {
		if int(id) >= len(p) || p[id] < 0 {
			continue
		}
		v := int(p[id])
		if v >= len(c.n) {
			c.grow(v)
		}
		if c.n[v] == 0 {
			terms++
			c.bits[v>>6] |= 1 << (v & 63)
			lo, hi = min(lo, v>>6), max(hi, v>>6)
		}
		c.n[v]++
	}
	if dst == nil {
		dst = make(Vector, 0, terms)
	} else {
		dst = slices.Grow(dst, terms)
	}
	for w := lo; w <= hi; w++ {
		for b := c.bits[w]; b != 0; b &= b - 1 {
			v := w<<6 | bits.TrailingZeros64(b)
			dst = append(dst, Term{ID: v, W: c.n[v]})
			c.n[v] = 0
		}
		c.bits[w] = 0
	}
	return dst
}
