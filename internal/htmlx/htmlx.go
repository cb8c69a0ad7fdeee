// Package htmlx is a minimal HTML processor for the data-gathering
// component: real Web pages arrive as markup, and the paper's
// eShopMonitor-style gatherer must turn them into clean text before
// snippet generation. It extracts visible text (dropping script/style
// and decoding entities), hyperlinks, and the page title, without any
// external dependency.
//
// The parser is deliberately forgiving — crawled HTML is rarely
// well-formed — and block-level elements become sentence-safe breaks so
// that the sentence chunker never glues a heading onto body text.
package htmlx

import (
	"strings"
	"unicode"
)

// blockTags are elements whose boundaries must not merge adjacent text.
var blockTags = map[string]bool{
	"p": true, "div": true, "br": true, "li": true, "ul": true,
	"ol": true, "h1": true, "h2": true, "h3": true, "h4": true,
	"h5": true, "h6": true, "tr": true, "td": true, "th": true,
	"table": true, "section": true, "article": true, "header": true,
	"footer": true, "nav": true, "blockquote": true, "hr": true,
	"title": true,
}

// skipTags are elements whose content is never visible text. The whole
// <head> is skipped: its title belongs to Title(), not the body text.
var skipTags = map[string]bool{
	"script": true, "style": true, "noscript": true, "head": true,
}

var entities = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "mdash": "—", "ndash": "–", "hellip": "…",
	"rsquo": "'", "lsquo": "'", "rdquo": "”", "ldquo": "“",
	"copy": "©", "reg": "®", "trade": "™", "euro": "€", "pound": "£",
}

// ExtractText returns the visible text of an HTML document. Block
// boundaries become double newlines (paragraph breaks for the sentence
// chunker); inline whitespace is collapsed.
func ExtractText(html string) string {
	var b strings.Builder
	skipDepth := 0
	i := 0
	n := len(html)
	for i < n {
		if html[i] == '<' {
			end := strings.IndexByte(html[i:], '>')
			if end < 0 {
				break // unterminated tag: drop the tail
			}
			tag := html[i+1 : i+end]
			i += end + 1
			name, closing := tagName(tag)
			if name == "" {
				continue // comment or doctype
			}
			if skipTags[name] {
				if closing {
					if skipDepth > 0 {
						skipDepth--
					}
				} else if !strings.HasSuffix(tag, "/") {
					skipDepth++
				}
				continue
			}
			if blockTags[name] {
				b.WriteString("\n\n")
			}
			continue
		}
		next := strings.IndexByte(html[i:], '<')
		var chunk string
		if next < 0 {
			chunk = html[i:]
			i = n
		} else {
			chunk = html[i : i+next]
			i += next
		}
		if skipDepth == 0 {
			b.WriteString(decodeEntities(chunk))
		}
	}
	return collapse(b.String())
}

// Title returns the contents of the first <title> element.
func Title(html string) string {
	lower := lowerASCII(html)
	start := strings.Index(lower, "<title")
	if start < 0 {
		return ""
	}
	open := strings.IndexByte(html[start:], '>')
	if open < 0 {
		return ""
	}
	rest := html[start+open+1:]
	end := strings.Index(lower[start+open+1:], "</title>")
	if end < 0 {
		return ""
	}
	return strings.TrimSpace(collapse(decodeEntities(rest[:end])))
}

// ExtractLinks returns the href targets of anchor tags, in document
// order, skipping fragments and javascript links.
func ExtractLinks(html string) []string {
	var out []string
	lower := lowerASCII(html)
	i := 0
	for {
		a := strings.Index(lower[i:], "<a")
		if a < 0 {
			break
		}
		i += a
		end := strings.IndexByte(html[i:], '>')
		if end < 0 {
			break
		}
		tag := html[i : i+end]
		i += end + 1
		href := attr(tag, "href")
		if href == "" || strings.HasPrefix(href, "#") ||
			strings.HasPrefix(strings.ToLower(href), "javascript:") {
			continue
		}
		out = append(out, href)
	}
	return out
}

// attr extracts an attribute value from a raw tag string (quoted with
// single or double quotes, or bare). The attribute name must start at a
// word boundary so "href" does not match inside "nohref".
func attr(tag, name string) string {
	lower := lowerASCII(tag)
	idx := -1
	for from := 0; ; {
		i := strings.Index(lower[from:], name+"=")
		if i < 0 {
			return ""
		}
		i += from
		if i == 0 || lower[i-1] == ' ' || lower[i-1] == '\t' || lower[i-1] == '\n' {
			idx = i
			break
		}
		from = i + 1
	}
	rest := tag[idx+len(name)+1:]
	if rest == "" {
		return ""
	}
	switch rest[0] {
	case '"', '\'':
		q := rest[0]
		if end := strings.IndexByte(rest[1:], q); end >= 0 {
			return rest[1 : 1+end]
		}
		return ""
	default:
		end := strings.IndexFunc(rest, unicode.IsSpace)
		if end < 0 {
			end = len(rest)
		}
		return strings.TrimSuffix(rest[:end], "/")
	}
}

// lowerASCII lower-cases the ASCII letters of s and leaves every other
// byte alone. The searches above look for ASCII markup and slice the
// original string at the offsets they find, so the lowered copy must
// keep every byte where it was; strings.ToLower does not (it widens
// each invalid byte to U+FFFD and changes the length of some runes).
func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// tagName parses a raw tag body into its lower-case element name and
// whether it is a closing tag. Comments/doctypes yield "".
func tagName(tag string) (name string, closing bool) {
	tag = strings.TrimSpace(tag)
	if tag == "" || tag[0] == '!' || tag[0] == '?' {
		return "", false
	}
	if tag[0] == '/' {
		closing = true
		tag = tag[1:]
	}
	end := 0
	for end < len(tag) {
		c := tag[end]
		if c == ' ' || c == '\t' || c == '\n' || c == '/' || c == '>' {
			break
		}
		end++
	}
	return strings.ToLower(tag[:end]), closing
}

// decodeEntities resolves the common named entities and numeric
// references.
func decodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	i := 0
	for i < len(s) {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(s[i])
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		if v, ok := entities[ent]; ok {
			b.WriteString(v)
			i += semi + 1
			continue
		}
		if strings.HasPrefix(ent, "#") {
			if r := parseNumericEntity(ent[1:]); r > 0 {
				b.WriteRune(r)
				i += semi + 1
				continue
			}
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

func parseNumericEntity(s string) rune {
	base := 10
	if len(s) > 1 && (s[0] == 'x' || s[0] == 'X') {
		base = 16
		s = s[1:]
	}
	var v rune
	for _, c := range s {
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = c - '0'
		case base == 16 && c >= 'a' && c <= 'f':
			d = c - 'a' + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = c - 'A' + 10
		default:
			return 0
		}
		v = v*rune(base) + d
		if v > 0x10FFFF {
			return 0
		}
	}
	return v
}

// collapse normalizes whitespace: runs of blank lines become one
// paragraph break, other whitespace runs a single space.
func collapse(s string) string {
	var b strings.Builder
	lines := strings.Split(s, "\n")
	blank := 0
	wrote := false
	for _, line := range lines {
		line = strings.Join(strings.Fields(line), " ")
		if line == "" {
			blank++
			continue
		}
		if wrote {
			if blank > 0 {
				b.WriteString("\n\n")
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteString(line)
		wrote = true
		blank = 0
	}
	return b.String()
}
