package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"testing"
)

// goldenDigests pins the bytes the generator produces. The world is the
// synthetic Web every experiment, golden ranking and benchmark digest
// is computed over, so any change to a template, a pool or the order of
// the generator's draws changes these digests. TestWorldDeterministic
// compares two runs of the same code and cannot see such a change.
//
// After World(), the same generator continues with PurePositives (40
// per driver), MisleadingSnippets (20 per driver) and
// BackgroundSnippets(100), in that order, as the daemon and the
// experiments draw them after building the world.
var goldenDigests = []struct {
	name                                string
	cfg                                 Config
	world, pure, misleading, background string
}{
	{
		name:       "default-seed1",
		cfg:        Config{Seed: 1},
		world:      "af6493716e19fbca8a93d2c57c282a0571f451888fc7aba536c5b83a458fe4ad",
		pure:       "95c11659d187279284f132bded7276441491c067f32bdb415f494da91b6e4075",
		misleading: "e0da4f10bfa6009c1b9fddea1488c4de0571227ecd92e97d1d16ee216d79de0b",
		background: "91336cacdf8721ba95486c70d6c1d568e6cd613f0f275772be907adc63fee2b7",
	},
	{
		name:       "default-seed7",
		cfg:        Config{Seed: 7},
		world:      "cbd08abc3016c004ef32a9dcf0153dfebd9e159aec9312a3f4bc03db82a80bc2",
		pure:       "7e39bcf6263e46f6c2c13ba079e8dc12e72fb74baae4acc2b70848e7b47a73d4",
		misleading: "156b8cbaa72793cefea77f54a87a6e02928dd8f7e0fde9473cf127fac0bf53d7",
		background: "b227c633af895778a8e8518b1dc2a153ba8aee096387fc354d4f175354a601c1",
	},
	{
		// The size of the benchmark's leads world.
		name: "leads-seed1",
		cfg: Config{Seed: 1, RelevantPerDriver: 840, HardNegativePerDriver: 280,
			BackgroundDocs: 2800, FamousEventDocs: 56},
		world:      "506c5d1ce05481a57157327650f57d1b11637aca0158ec6942c112df4b86c185",
		pure:       "a857a09df71767b9021a831955feed4b7bde505a04aa1f91510570b52db6a382",
		misleading: "4b598b9d821e7b27b11b19920eab74c83f7f81c10c17b28289017213165b8466",
		background: "471c9f459882c8b407210b9ff2ecb725afbeea0852d21dc8b2e284095d027753",
	},
}

func TestGoldenWorldDigests(t *testing.T) {
	for _, tc := range goldenDigests {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGenerator(tc.cfg)
			check := func(what, got, want string) {
				t.Helper()
				if got != want {
					t.Errorf("%s digest = %s, want %s", what, got, want)
				}
			}
			check("world", digestWorld(g.World()), tc.world)
			var pure, misleading []LabeledSnippet
			for _, d := range Drivers {
				pure = append(pure, g.PurePositives(d, 40)...)
			}
			check("PurePositives", digestSnippets(pure), tc.pure)
			for _, d := range Drivers {
				misleading = append(misleading, g.MisleadingSnippets(d, 20)...)
			}
			check("MisleadingSnippets", digestSnippets(misleading), tc.misleading)
			check("BackgroundSnippets", digestSnippets(g.BackgroundSnippets(100)), tc.background)
		})
	}
}

// digestWorld hashes every field of every document, sentences with
// their ground truth and links included. Each string is length-prefixed,
// so no two different worlds hash the same bytes.
func digestWorld(docs []Document) string {
	h := sha256.New()
	for i := range docs {
		d := &docs[i]
		digestStrings(h, d.ID, d.URL, d.Host, d.Title, strconv.Itoa(int(d.Kind)),
			string(d.Driver), d.Company, strconv.Itoa(len(d.Sentences)))
		for _, s := range d.Sentences {
			digestStrings(h, s.Text, string(s.Driver), strconv.FormatBool(s.Misleading), s.Company)
		}
		digestStrings(h, strconv.Itoa(len(d.Links)))
		digestStrings(h, d.Links...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestSnippets(snips []LabeledSnippet) string {
	h := sha256.New()
	for _, s := range snips {
		digestStrings(h, s.Text, string(s.Driver), s.Company)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestStrings(h hash.Hash, ss ...string) {
	for _, s := range ss {
		fmt.Fprintf(h, "%d:%s", len(s), s)
	}
}
