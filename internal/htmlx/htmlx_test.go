package htmlx

import (
	"strings"
	"testing"
)

const page = `<!DOCTYPE html>
<html><head><title>Acme acquires Widget &amp; Co</title>
<style>body { color: red; }</style>
<script>var x = "<p>not text</p>";</script>
</head>
<body>
<div class="nav"><a href="/home">Home</a> <a href="#top">Top</a></div>
<h1>Acme acquires Widget</h1>
<p>Acme Corp announced that it has acquired Widget Inc for $120 million.</p>
<p>The deal closed on <b>Friday</b> &mdash; shares rose 10%.</p>
<ul><li>Item one</li><li>Item two</li></ul>
<a href='http://other.example.com/story'>Related story</a>
<a href="javascript:void(0)">Ignore</a>
<!-- a comment with <fake> tags -->
</body></html>`

func TestExtractTextBasics(t *testing.T) {
	text := ExtractText(page)
	for _, want := range []string{
		"Acme Corp announced that it has acquired Widget Inc for $120 million.",
		"The deal closed on Friday — shares rose 10%.",
		"Item one",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in %q", want, text)
		}
	}
}

func TestExtractTextDropsScriptAndStyle(t *testing.T) {
	text := ExtractText(page)
	for _, banned := range []string{"color: red", "var x", "not text"} {
		if strings.Contains(text, banned) {
			t.Errorf("script/style leaked: %q", banned)
		}
	}
}

func TestExtractTextBlocksSeparate(t *testing.T) {
	text := ExtractText("<h1>Headline no period</h1><p>Body text here.</p>")
	if !strings.Contains(text, "\n\n") {
		t.Fatalf("no paragraph break between blocks: %q", text)
	}
	if strings.Contains(text, "periodBody") || strings.Contains(text, "period Body") &&
		!strings.Contains(text, "\n") {
		t.Fatalf("blocks merged: %q", text)
	}
}

func TestExtractTextInlineTagsMerge(t *testing.T) {
	text := ExtractText("<p>shares <b>rose</b> <i>sharply</i> today</p>")
	if !strings.Contains(text, "shares rose sharply today") {
		t.Fatalf("inline merge failed: %q", text)
	}
}

func TestExtractTextEntities(t *testing.T) {
	text := ExtractText("<p>AT&amp;T &lt;hello&gt; &#65;&#x42; &euro;5</p>")
	if !strings.Contains(text, "AT&T <hello> AB €5") {
		t.Fatalf("entities: %q", text)
	}
}

func TestExtractTextUnknownEntityKept(t *testing.T) {
	text := ExtractText("<p>a &bogus; b</p>")
	if !strings.Contains(text, "&bogus;") {
		t.Fatalf("unknown entity mangled: %q", text)
	}
}

func TestExtractTextMalformed(t *testing.T) {
	// Unterminated tag, stray brackets: must not panic, best-effort text.
	for _, in := range []string{"<p>text <unclosed", "a < b > c", "", "<><>"} {
		_ = ExtractText(in)
	}
	if got := ExtractText("a &lt b"); !strings.Contains(got, "a") {
		t.Errorf("got %q", got)
	}
}

func TestTitle(t *testing.T) {
	if got := Title(page); got != "Acme acquires Widget & Co" {
		t.Fatalf("title = %q", got)
	}
	if got := Title("<p>no title</p>"); got != "" {
		t.Fatalf("phantom title %q", got)
	}
}

func TestExtractLinks(t *testing.T) {
	links := ExtractLinks(page)
	want := []string{"/home", "http://other.example.com/story"}
	if len(links) != len(want) {
		t.Fatalf("links = %v, want %v", links, want)
	}
	for i := range want {
		if links[i] != want[i] {
			t.Errorf("link %d = %q, want %q", i, links[i], want[i])
		}
	}
}

// TestOffsetsSurviveNonASCII covers input whose lower-cased form has a
// different byte length: invalid UTF-8 (each bad byte would widen to
// U+FFFD) and the Kelvin sign (which lower-cases to one byte). Markup
// must still be found at the right offsets, with no panic.
func TestOffsetsSurviveNonASCII(t *testing.T) {
	for _, prefix := range []string{"\xff\xfe", "\u212a\u212a", "\xd9\xd9\xd9\xd9"} {
		html := prefix + "<HTML><TITLE>Acme</TITLE><A HREF='/x'>x</A><a title=\xff href=\"/y\">y</a>"
		if got := Title(html); got != "Acme" {
			t.Errorf("Title(%q) = %q, want Acme", html, got)
		}
		if got := ExtractLinks(html); len(got) != 2 || got[0] != "/x" || got[1] != "/y" {
			t.Errorf("ExtractLinks(%q) = %q, want [/x /y]", html, got)
		}
	}
}

func TestAttrQuoting(t *testing.T) {
	cases := map[string]string{
		`a href="x y"`: "x y",
		`a href='z'`:   "z",
		`a href=bare`:  "bare",
		`a nohref="x"`: "",
		`a href=""`:    "",
	}
	for tag, want := range cases {
		if got := attr(tag, "href"); got != want {
			t.Errorf("attr(%q) = %q, want %q", tag, got, want)
		}
	}
}
