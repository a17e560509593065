package harness

import (
	"fmt"
	"html"
	"strings"
)

// RenderHTMLPage assembles a self-contained results page from a set of
// experiment runs — the reproduction's stand-in for the interactive
// results site the paper pointed readers to (quantiles.github.com).
// sections preserves insertion order: each entry is (experiment id,
// results).
type HTMLSection struct {
	Exp     string
	Results []Result
}

// RenderHTMLPage renders the full page.
func RenderHTMLPage(sections []HTMLSection, subtitle string) string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Quantiles over data streams — reproduction results</title>
<style>
 body { font: 15px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1a1a1a; }
 h1 { font-size: 1.5rem; }
 h2 { font-size: 1.1rem; margin-top: 2.5rem; border-bottom: 1px solid #ddd; padding-bottom: .3rem; }
 p.paper { color: #444; background: #f6f6f6; padding: .6rem .8rem; border-left: 3px solid #888; }
 table { border-collapse: collapse; margin: .8rem 0; }
 th, td { padding: .25rem .7rem; text-align: right; font-variant-numeric: tabular-nums; }
 th { background: #f0f0f0; }
 td:first-child, th:first-child { text-align: left; }
 tr:nth-child(even) td { background: #fafafa; }
</style>
</head>
<body>
<h1>Quantiles over data streams: an experimental study — reproduction results</h1>
`)
	fmt.Fprintf(&b, "<p>%s</p>\n", html.EscapeString(subtitle))
	titles := Titles()
	expectations := PaperExpectations()
	notes := ReproductionNotes()
	for _, sec := range sections {
		fmt.Fprintf(&b, "<h2 id=%q>%s</h2>\n", html.EscapeString(sec.Exp),
			html.EscapeString(titles[sec.Exp]))
		fmt.Fprintf(&b, "<p class=\"paper\"><strong>Paper:</strong> %s</p>\n",
			html.EscapeString(expectations[sec.Exp]))
		b.WriteString(renderHTMLTable(sec.Exp, sec.Results))
		if note := notes[sec.Exp]; note != "" {
			fmt.Fprintf(&b, "<p class=\"note\"><strong>Note:</strong> %s</p>\n", html.EscapeString(note))
		}
	}
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

func renderHTMLTable(exp string, results []Result) string {
	cols := columnsFor(exp)
	var b strings.Builder
	b.WriteString("<table>\n<tr>")
	for _, c := range cols {
		fmt.Fprintf(&b, "<th>%s</th>", html.EscapeString(c.head))
	}
	b.WriteString("</tr>\n")
	for _, r := range results {
		b.WriteString("<tr>")
		for _, c := range cols {
			fmt.Fprintf(&b, "<td>%s</td>", html.EscapeString(c.get(r)))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
	return b.String()
}
