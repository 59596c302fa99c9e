package bench

import (
	"fmt"
	"strings"
)

// RenderMarkdown draws the result as GitHub-flavored markdown, for
// report generation (aitax experiments -format markdown).
func (r *Result) RenderMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	if len(r.Headers) > 0 {
		writeMDRow(&b, r.Headers)
		sep := make([]string, len(r.Headers))
		for i := range sep {
			sep[i] = "---"
		}
		writeMDRow(&b, sep)
		for _, row := range r.Rows {
			writeMDRow(&b, row)
		}
		b.WriteString("\n")
	}
	for _, blk := range r.Blocks {
		b.WriteString("```\n")
		b.WriteString(blk)
		if !strings.HasSuffix(blk, "\n") {
			b.WriteString("\n")
		}
		b.WriteString("```\n\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

func writeMDRow(b *strings.Builder, cells []string) {
	b.WriteString("|")
	for _, c := range cells {
		b.WriteString(" ")
		b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
		b.WriteString(" |")
	}
	b.WriteString("\n")
}

// RenderCSV emits the result's table as CSV (blocks and notes are
// dropped; they are not tabular).
func (r *Result) RenderCSV() string {
	var b strings.Builder
	writeCSVRow(&b, r.Headers)
	for _, row := range r.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteString(",")
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			b.WriteString(c)
		}
	}
	b.WriteString("\n")
}
