package corpus

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"etap/internal/gazetteer"
)

// DocKind classifies a generated document.
type DocKind uint8

const (
	// KindRelevant pages carry trigger events for one driver, mixed with
	// noise — the pages smart queries surface (Figure 5).
	KindRelevant DocKind = iota
	// KindBackground pages carry no driver content at all.
	KindBackground
	// KindHardNegative pages discuss a driver's vocabulary without any
	// actual trigger event (biography pages, M&A consulting pages).
	KindHardNegative
)

// Sentence is one generated sentence with its ground truth.
type Sentence struct {
	Text string
	// Driver is the sales driver this sentence is a trigger event for,
	// or "" for non-trigger sentences.
	Driver Driver
	// Misleading marks non-trigger sentences deliberately built to
	// resemble a driver's trigger events.
	Misleading bool
	// Company is the canonical subject company of a trigger sentence.
	Company string
}

// Document is a generated Web page with per-sentence ground truth.
type Document struct {
	ID     string
	URL    string
	Host   string
	Title  string
	Kind   DocKind
	Driver Driver // the focus driver for relevant/hard-negative docs
	// Company is the canonical subject company of a relevant document.
	Company   string
	Sentences []Sentence
	Links     []string // URLs of other documents
}

// Text renders the full document body (sentences joined by spaces).
func (d *Document) Text() string {
	parts := make([]string, len(d.Sentences))
	for i, s := range d.Sentences {
		parts[i] = s.Text
	}
	return strings.Join(parts, " ")
}

// Config sizes the synthetic web.
type Config struct {
	// Seed drives all randomness; equal seeds produce identical worlds.
	Seed int64
	// RelevantPerDriver is the number of relevant pages per driver;
	// 0 means 120.
	RelevantPerDriver int
	// BackgroundDocs is the number of pure-background pages; 0 means 400.
	BackgroundDocs int
	// HardNegativePerDriver is the number of near-miss pages per driver;
	// 0 means 40.
	HardNegativePerDriver int
	// UnknownEntityRate is the probability that a generated company or
	// person is out-of-gazetteer (invisible to the NER); 0 means 0.12.
	UnknownEntityRate float64
	// FamousEventDocs is the number of pages covering each famous
	// acquisition (the recent events behind smart queries like
	// "IBM Daksh"); 0 means 8.
	FamousEventDocs int
}

// famousPairs are the well-known acquisitions the paper queries by name:
// "if one queries the Web with 'IBM Daksh', most of the documents that
// are returned, are about the recent IBM acquisition of Daksh." Each pair
// receives a cluster of dedicated pages in the generated world.
var famousPairs = [][2]string{
	{"IBM", "Daksh"},
	{"Coors", "Molson"},
	{"JobsAhead", "Monster"},
	{"Oracle", "PeopleSoft"},
	{"Alcatel", "Lucent"},
}

// FamousPairs returns the acquirer/acquired pairs that have dedicated
// coverage in the world (exported so the training specs can query them).
func FamousPairs() [][2]string {
	out := make([][2]string, len(famousPairs))
	copy(out, famousPairs)
	return out
}

func (c Config) withDefaults() Config {
	if c.RelevantPerDriver == 0 {
		c.RelevantPerDriver = 120
	}
	if c.BackgroundDocs == 0 {
		c.BackgroundDocs = 400
	}
	if c.HardNegativePerDriver == 0 {
		c.HardNegativePerDriver = 40
	}
	if c.UnknownEntityRate == 0 {
		c.UnknownEntityRate = 0.12
	}
	if c.FamousEventDocs == 0 {
		c.FamousEventDocs = 8
	}
	return c
}

// hosts of the synthetic web. Relevant pages concentrate on the news
// hosts; backgrounds are spread everywhere.
var hosts = []string{
	"biznews.example.com", "pressdesk.example.net", "tradejournal.example.org",
	"marketwatchers.example.com", "dailyledger.example.net",
	"cityliving.example.org", "sportsroundup.example.com", "travelog.example.net",
}

// Generator produces documents and snippets deterministically.
type Generator struct {
	cfg Config
	rng *rand.Rand
	seq int
	buf []byte // fillWith's sentence buffer
}

// NewGenerator builds a seeded generator.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// World generates the full synthetic web: relevant pages for every
// driver, hard negatives, and background pages, with a hyperlink graph.
func (g *Generator) World() []Document {
	var docs []Document
	for _, d := range Drivers {
		for i := 0; i < g.cfg.RelevantPerDriver; i++ {
			docs = append(docs, g.RelevantDoc(d))
		}
		for i := 0; i < g.cfg.HardNegativePerDriver; i++ {
			docs = append(docs, g.HardNegativeDoc(d))
		}
	}
	for _, pair := range famousPairs {
		for i := 0; i < g.cfg.FamousEventDocs; i++ {
			docs = append(docs, g.FamousEventDoc(pair))
		}
	}
	for i := 0; i < g.cfg.BackgroundDocs; i++ {
		docs = append(docs, g.BackgroundDoc())
	}
	g.linkDocs(docs)
	return docs
}

// FamousEventDoc generates one page covering a famous acquisition: M&A
// trigger sentences with both organizations pinned, plus the usual noise.
func (g *Generator) FamousEventDoc(pair [2]string) Document {
	var sents []Sentence
	for i, n := 0, 2+g.rng.Intn(3); i < n; i++ {
		pool := trainPool[MergersAcquisitions]
		tpl := pool[g.rng.Intn(len(pool))]
		sents = append(sents, Sentence{
			Text:    g.fillPinned(tpl, pair[0], pair[1]),
			Driver:  MergersAcquisitions,
			Company: pair[0],
		})
	}
	for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
		sents = append(sents, g.misleading(MergersAcquisitions))
	}
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		sents = append(sents, g.noise())
	}
	g.rng.Shuffle(len(sents), func(i, j int) { sents[i], sents[j] = sents[j], sents[i] })
	sents = append(sents, g.boilerplate())
	return g.newDoc(KindRelevant, MergersAcquisitions, pair[0], sents, g.rng.Intn(5))
}

// linkDocs wires a random hyperlink graph: every page links to 2-5
// others, biased toward pages on the same host (site navigation).
func (g *Generator) linkDocs(docs []Document) {
	byHost := map[string][]int{}
	for i, d := range docs {
		byHost[d.Host] = append(byHost[d.Host], i)
	}
	for i := range docs {
		n := 2 + g.rng.Intn(4)
		seen := map[int]bool{i: true}
		for k := 0; k < n; k++ {
			var j int
			if g.rng.Float64() < 0.6 {
				peers := byHost[docs[i].Host]
				j = peers[g.rng.Intn(len(peers))]
			} else {
				j = g.rng.Intn(len(docs))
			}
			if seen[j] {
				continue
			}
			seen[j] = true
			docs[i].Links = append(docs[i].Links, docs[j].URL)
		}
		// Guarantee connectivity: every page links somewhere.
		for len(docs[i].Links) == 0 && len(docs) > 1 {
			j := g.rng.Intn(len(docs))
			if j == i {
				continue
			}
			docs[i].Links = append(docs[i].Links, docs[j].URL)
		}
	}
}

// RelevantDoc generates one page relevant to driver d: a subject company,
// 2-4 trigger sentences, plus misleading, neutral and noise sentences in
// shuffled order (mirroring Figures 5 and 6: the same page holds both
// valid trigger events and invalid sentences).
func (g *Generator) RelevantDoc(d Driver) Document {
	company := g.company()
	var sents []Sentence

	nTrig := 2 + g.rng.Intn(3)
	for i := 0; i < nTrig; i++ {
		sents = append(sents, g.trigger(d, company, false))
	}
	nMislead := 1 + g.rng.Intn(3)
	for i := 0; i < nMislead; i++ {
		sents = append(sents, g.misleading(d))
	}
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		sents = append(sents, g.neutral())
	}
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		sents = append(sents, g.noise())
	}
	g.rng.Shuffle(len(sents), func(i, j int) { sents[i], sents[j] = sents[j], sents[i] })
	// Boilerplate frames the page.
	sents = append(sents, g.boilerplate())

	doc := g.newDoc(KindRelevant, d, company, sents, g.rng.Intn(5)) // news hosts 0-4
	return doc
}

// HardNegativeDoc generates a page full of near-miss content for d.
func (g *Generator) HardNegativeDoc(d Driver) Document {
	var sents []Sentence
	for i, n := 0, 2+g.rng.Intn(3); i < n; i++ {
		sents = append(sents, g.misleading(d))
	}
	for i, n := 0, 2+g.rng.Intn(3); i < n; i++ {
		sents = append(sents, g.neutral())
	}
	for i, n := 0, 1+g.rng.Intn(2); i < n; i++ {
		sents = append(sents, g.noise())
	}
	g.rng.Shuffle(len(sents), func(i, j int) { sents[i], sents[j] = sents[j], sents[i] })
	sents = append(sents, g.boilerplate())
	return g.newDoc(KindHardNegative, d, "", sents, g.rng.Intn(len(hosts)))
}

// BackgroundDoc generates a page with no driver content. Sentences within
// one page never repeat verbatim (real pages do not stutter).
func (g *Generator) BackgroundDoc() Document {
	var sents []Sentence
	seen := map[string]bool{}
	for i, n := 0, 3+g.rng.Intn(5); i < n; i++ {
		var s Sentence
		for tries := 0; tries < 10; tries++ {
			if g.rng.Float64() < 0.35 {
				s = g.neutral()
			} else {
				s = g.noise()
			}
			if !seen[s.Text] {
				break
			}
		}
		seen[s.Text] = true
		sents = append(sents, s)
	}
	if g.rng.Float64() < 0.5 {
		sents = append(sents, g.boilerplate())
	}
	return g.newDoc(KindBackground, "", "", sents, g.rng.Intn(len(hosts)))
}

func (g *Generator) newDoc(kind DocKind, d Driver, company string, sents []Sentence, hostIdx int) Document {
	g.seq++
	id := fmt.Sprintf("doc-%05d", g.seq)
	host := hosts[hostIdx]
	title := strings.TrimSuffix(sents[0].Text, ".")
	if len(title) > 60 {
		title = title[:60]
	}
	title = strings.TrimSpace(title)
	return Document{
		ID:        id,
		URL:       fmt.Sprintf("http://%s/%s", host, id),
		Host:      host,
		Title:     title,
		Kind:      kind,
		Driver:    d,
		Company:   company,
		Sentences: sents,
	}
}

// --- sentence realization ----------------------------------------------

// trigger realizes one trigger sentence for d about company. heldout
// selects the held-out template pool.
func (g *Generator) trigger(d Driver, company string, heldout bool) Sentence {
	pool := trainPool[d]
	if heldout {
		pool = heldoutPool[d]
	}
	tpl := pool[g.rng.Intn(len(pool))]
	return Sentence{
		Text:    g.fill(tpl, company),
		Driver:  d,
		Company: company,
	}
}

func (g *Generator) misleading(d Driver) Sentence {
	pool := misleadingPool[d]
	tpl := pool[g.rng.Intn(len(pool))]
	return Sentence{Text: g.fill(tpl, ""), Misleading: true}
}

func (g *Generator) neutral() Sentence {
	tpl := neutralPool[g.rng.Intn(len(neutralPool))]
	return Sentence{Text: g.fill(tpl, "")}
}

func (g *Generator) noise() Sentence {
	tpl := noisePool[g.rng.Intn(len(noisePool))]
	return Sentence{Text: g.fill(tpl, "")}
}

func (g *Generator) boilerplate() Sentence {
	tpl := boilerplatePool[g.rng.Intn(len(boilerplatePool))]
	return Sentence{Text: g.fill(tpl, "")}
}

// company draws a company name: usually gazetteer core + suffix, sometimes
// a well-known org, sometimes out-of-gazetteer (NER-invisible).
func (g *Generator) company() string {
	r := g.rng.Float64()
	switch {
	case r < g.cfg.UnknownEntityRate:
		// Unknown core without a suffix: the NER cannot see it.
		return gazetteer.UnknownOrgCores[g.rng.Intn(len(gazetteer.UnknownOrgCores))]
	case r < g.cfg.UnknownEntityRate+0.15:
		return gazetteer.KnownOrgs[g.rng.Intn(len(gazetteer.KnownOrgs))]
	default:
		core := gazetteer.CompanyCores[g.rng.Intn(len(gazetteer.CompanyCores))]
		suffix := gazetteer.CompanySuffixes[g.rng.Intn(len(gazetteer.CompanySuffixes))]
		return core + " " + suffix
	}
}

// commonDesignations are the titles that dominate management-change news;
// sampling is biased toward them so that smart queries like "new ceo"
// behave as the paper describes (high-yield, high-precision).
var commonDesignations = []string{
	"CEO", "CTO", "CFO", "President", "Chairman", "Managing Director",
}

func (g *Generator) designation() string {
	if g.rng.Float64() < 0.55 {
		return commonDesignations[g.rng.Intn(len(commonDesignations))]
	}
	return gazetteer.Designations[g.rng.Intn(len(gazetteer.Designations))]
}

func (g *Generator) person() string {
	first := gazetteer.FirstNames[g.rng.Intn(len(gazetteer.FirstNames))]
	if g.rng.Float64() < g.cfg.UnknownEntityRate {
		return first + " " + gazetteer.UnknownSurnames[g.rng.Intn(len(gazetteer.UnknownSurnames))]
	}
	return first + " " + gazetteer.LastNames[g.rng.Intn(len(gazetteer.LastNames))]
}

// fill expands placeholders in tpl. company, when non-empty, pins {ORG1}.
func (g *Generator) fill(tpl template, company string) string {
	org1 := company
	if org1 == "" {
		org1 = g.company()
	}
	org2 := g.company()
	for org2 == org1 {
		org2 = g.company()
	}
	return g.fillWith(tpl, org1, org2)
}

// fillPinned expands placeholders with both organizations fixed.
func (g *Generator) fillPinned(tpl template, org1, org2 string) string {
	return g.fillWith(tpl, org1, org2)
}

// fillWith draws every placeholder value, used by tpl or not, and
// writes the sentence in one pass. The draws and their order decide
// every later value the generator produces: reordering, adding or
// skipping one changes every world.
func (g *Generator) fillWith(tpl template, org1, org2 string) string {
	prsn := g.person()
	prsn2 := g.person()
	for prsn2 == prsn {
		prsn2 = g.person()
	}
	year := 1980 + g.rng.Intn(25)
	year2 := year + 1 + g.rng.Intn(10)
	if year2 > 2005 {
		year2 = 2005
	}
	desig := g.designation()
	cur := g.currency()
	pct := g.percent()
	per := g.period()
	qtr := g.quarter()
	plc := gazetteer.Places[g.rng.Intn(len(gazetteer.Places))]
	prod := gazetteer.Products[g.rng.Intn(len(gazetteer.Products))]
	cnt := 2 + g.rng.Intn(30)
	posPhrase := positivePhrases[g.rng.Intn(len(positivePhrases))]
	negPhrase := negativePhrases[g.rng.Intn(len(negativePhrases))]

	b := g.buf[:0]
	for _, p := range tpl {
		switch p.slot {
		case slotLiteral:
			b = append(b, p.lit...)
		case slotORG1:
			b = append(b, org1...)
		case slotORG2:
			b = append(b, org2...)
		case slotPRSN:
			b = append(b, prsn...)
		case slotPRSN2:
			b = append(b, prsn2...)
		case slotDESIG:
			b = append(b, desig...)
		case slotCUR:
			b = cur.appendTo(b)
		case slotPCT:
			b = pct.appendTo(b)
		case slotPERIOD:
			b = per.appendTo(b)
		case slotQTR:
			b = append(b, qtr...)
		case slotYEAR:
			b = strconv.AppendInt(b, int64(year), 10)
		case slotYEAR2:
			b = strconv.AppendInt(b, int64(year2), 10)
		case slotPLC:
			b = append(b, plc...)
		case slotPROD:
			b = append(b, prod...)
		case slotCNT:
			b = strconv.AppendInt(b, int64(cnt), 10)
		case slotPOSPHRASE:
			b = append(b, posPhrase...)
		case slotNEGPHRASE:
			b = append(b, negPhrase...)
		}
	}
	g.buf = b
	return string(b)
}

// money is a drawn currency amount ("$120 million", "$3 billion").
type money struct {
	amount  int
	billion bool
}

func (g *Generator) currency() money {
	m := money{amount: 5 + g.rng.Intn(900)}
	if g.rng.Float64() < 0.2 {
		m = money{amount: 1 + g.rng.Intn(40), billion: true}
	}
	return m
}

func (m money) appendTo(b []byte) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(m.amount), 10)
	if m.billion {
		return append(b, " billion"...)
	}
	return append(b, " million"...)
}

// percentage is a drawn percentage ("12 percent", "12%").
type percentage struct {
	n    int
	word bool
}

func (g *Generator) percent() percentage {
	return percentage{n: 1 + g.rng.Intn(40), word: g.rng.Float64() < 0.5}
}

func (p percentage) appendTo(b []byte) []byte {
	b = strconv.AppendInt(b, int64(p.n), 10)
	if p.word {
		return append(b, " percent"...)
	}
	return append(b, '%')
}

// calendarExpr is a drawn calendar expression: a month or weekday
// name, optionally followed by a day of the month and a year
// ("January 12, 2004", "Friday", "March 2003", "May").
type calendarExpr struct {
	name      string
	day, year int // 0 when absent
}

func (g *Generator) period() calendarExpr {
	switch g.rng.Intn(4) {
	case 0:
		m := gazetteer.Months[g.rng.Intn(len(gazetteer.Months))]
		return calendarExpr{name: m, day: 1 + g.rng.Intn(28), year: 2000 + g.rng.Intn(6)}
	case 1:
		return calendarExpr{name: gazetteer.Weekdays[g.rng.Intn(len(gazetteer.Weekdays))]}
	case 2:
		m := gazetteer.Months[g.rng.Intn(len(gazetteer.Months))]
		return calendarExpr{name: m, year: 2000 + g.rng.Intn(6)}
	default:
		return calendarExpr{name: gazetteer.Months[g.rng.Intn(len(gazetteer.Months))]}
	}
}

func (c calendarExpr) appendTo(b []byte) []byte {
	b = append(b, c.name...)
	if c.day > 0 {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(c.day), 10)
		b = append(b, ',')
	}
	if c.year > 0 {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(c.year), 10)
	}
	return b
}

// ordinalQuarters are the spelled-out quarters ("the first quarter").
var ordinalQuarters = []string{
	"the first quarter", "the second quarter", "the third quarter", "the fourth quarter",
}

func (g *Generator) quarter() string {
	if g.rng.Float64() < 0.5 {
		return gazetteer.Quarters[g.rng.Intn(len(gazetteer.Quarters))]
	}
	return ordinalQuarters[g.rng.Intn(len(ordinalQuarters))]
}
