// Command corpusgen generates the synthetic web and dumps it for
// inspection: page statistics, a sample of documents with their
// ground-truth sentence labels, or the whole corpus as JSON. With
// -index it additionally builds the memory-only search index over the
// corpus and reports index statistics plus build time.
//
// With -kb it also generates the seed-deterministic company knowledge
// base over the corpus company inventory and writes it as JSONL —
// the file etapd loads with its own -kb flag.
//
// Usage:
//
//	corpusgen [-seed N] [-sample K] [-json] [-kb kb.jsonl]
//	          [-index] [-index-shards N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"etap/internal/core"
	"etap/internal/corpus"
	"etap/internal/kb"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "generation seed")
		sample   = flag.Int("sample", 3, "documents to print per kind")
		asJSON   = flag.Bool("json", false, "dump the whole corpus as JSON to stdout")
		relevant = flag.Int("relevant", 0, "relevant docs per driver (0 = default)")
		backgrnd = flag.Int("background", 0, "background docs (0 = default)")
		doIndex  = flag.Bool("index", false, "build the search index and print its statistics")
		shards   = flag.Int("index-shards", 0, "search-index writer-lane count (0 = GOMAXPROCS)")
		kbPath   = flag.String("kb", "", "generate the company knowledge base from -seed and write it as JSONL to this path")
	)
	flag.Parse()

	if *kbPath != "" {
		k := kb.Generate(kb.Config{Seed: *seed})
		if err := k.SaveFile(*kbPath); err != nil {
			fmt.Fprintln(os.Stderr, "corpusgen:", err)
			os.Exit(1)
		}
		fmt.Printf("knowledge base: %d companies (seed %d) -> %s\n", k.Len(), *seed, *kbPath)
		return
	}

	gen := corpus.NewGenerator(corpus.Config{
		Seed:              *seed,
		RelevantPerDriver: *relevant,
		BackgroundDocs:    *backgrnd,
	})
	docs := gen.World()

	if *doIndex {
		start := time.Now()
		w, err := core.BuildWebEngine(docs, core.Config{Shards: *shards})
		if err != nil {
			fmt.Fprintln(os.Stderr, "corpusgen:", err)
			os.Exit(1)
		}
		st := w.Index().IndexStats()
		fmt.Printf("indexed %d documents in %v\n", st.Docs, time.Since(start).Round(time.Millisecond))
		fmt.Printf("shards: %d\n", st.Shards)
		fmt.Printf("terms (per-shard entries): %d\n", st.Terms)
		fmt.Printf("postings: %d\n", st.Postings)
		fmt.Printf("query cache entries: %d\n", st.CacheEntries)
		return
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			fmt.Fprintln(os.Stderr, "corpusgen:", err)
			os.Exit(1)
		}
		return
	}

	kinds := map[corpus.DocKind]int{}
	triggers := map[corpus.Driver]int{}
	sentences := 0
	for _, d := range docs {
		kinds[d.Kind]++
		sentences += len(d.Sentences)
		for _, drv := range corpus.Drivers {
			triggers[drv] += d.TriggerCount(drv)
		}
	}
	fmt.Printf("documents: %d (relevant %d, hard-negative %d, background %d)\n",
		len(docs), kinds[corpus.KindRelevant], kinds[corpus.KindHardNegative],
		kinds[corpus.KindBackground])
	fmt.Printf("sentences: %d\n", sentences)
	for _, drv := range corpus.Drivers {
		fmt.Printf("trigger sentences, %s: %d\n", drv.Title(), triggers[drv])
	}

	printed := map[corpus.DocKind]int{}
	for _, d := range docs {
		if printed[d.Kind] >= *sample {
			continue
		}
		printed[d.Kind]++
		fmt.Printf("\n--- %s [%s] %s\n", d.ID, kindName(d.Kind), d.URL)
		for _, s := range d.Sentences {
			tag := " "
			switch {
			case s.Driver != "":
				tag = "T" // trigger
			case s.Misleading:
				tag = "M"
			}
			fmt.Printf("  [%s] %s\n", tag, s.Text)
		}
	}
}

func kindName(k corpus.DocKind) string {
	switch k {
	case corpus.KindRelevant:
		return "relevant"
	case corpus.KindHardNegative:
		return "hard-negative"
	default:
		return "background"
	}
}
