package corpus

import (
	"fmt"
	"strings"

	"etap/internal/par"
)

// RenderHTML renders a generated document as the HTML page a crawler
// would actually fetch: title, navigation links, one paragraph per
// sentence, script/style decoys and a footer. The data-gathering
// component must recover the clean text from this (see
// core.BuildWebFromHTML and internal/htmlx).
func RenderHTML(doc *Document) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head>")
	fmt.Fprintf(&b, "<title>%s</title>", escape(doc.Title))
	b.WriteString("<style>body{font-family:serif;margin:2em}</style>")
	b.WriteString("<script>window.trackingId='etap-synth';</script>")
	b.WriteString("</head>\n<body>\n<nav>")
	for i, l := range doc.Links {
		fmt.Fprintf(&b, `<a href="%s">story %d</a> `, l, i+1)
	}
	b.WriteString("</nav>\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", escape(doc.Title))
	b.WriteString("<article>\n")
	for _, s := range doc.Sentences {
		fmt.Fprintf(&b, "<p>%s</p>\n", escape(s.Text))
	}
	b.WriteString("</article>\n<footer>Served by ")
	b.WriteString(escape(doc.Host))
	b.WriteString("</footer>\n</body></html>\n")
	return b.String()
}

// RenderHTMLAll renders every document concurrently through par.For,
// preserving input order — the bulk path core.BuildWebFromHTML uses to
// feed the sharded index without making HTML rendering the serial
// bottleneck. Rendering is per-document pure, so the output is
// identical to calling RenderHTML in a loop.
func RenderHTMLAll(docs []Document) []string {
	out := make([]string, len(docs))
	par.For(0, len(docs), func(i int) { out[i] = RenderHTML(&docs[i]) })
	return out
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}
