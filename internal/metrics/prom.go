package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Label is one name/value pair attached to a Prometheus sample.
type Label struct {
	Name  string
	Value string
}

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4), the payload of a /metrics endpoint. Samples accumulate
// in memory and Flush writes them grouped by metric family — the format
// requires a family's series to be consecutive, and producers (one per
// served model, plus training sources) naturally interleave families. The
// `# HELP` / `# TYPE` header is emitted once per family, help texts and
// label values are escaped, and the first error (io failure or a name re-declared under a
// different type) is retained for Flush. A PromWriter is
// single-goroutine: build one per scrape over a buffer.
type PromWriter struct {
	w     io.Writer
	order []string          // families in first-seen order
	kinds map[string]string // family -> TYPE
	helps map[string]string
	lines map[string][]string // family -> rendered sample lines
	err   error
}

// NewPromWriter builds a writer that Flush renders to w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{
		w:     w,
		kinds: make(map[string]string),
		helps: make(map[string]string),
		lines: make(map[string][]string),
	}
}

// Counter records one monotonically-increasing sample.
func (p *PromWriter) Counter(name, help string, value float64, labels ...Label) {
	p.sample(name, "counter", help, name, value, labels)
}

// Gauge records one point-in-time sample.
func (p *PromWriter) Gauge(name, help string, value float64, labels ...Label) {
	p.sample(name, "gauge", help, name, value, labels)
}

// Histogram records one cumulative-bucket histogram: a `_bucket` series per
// bound plus `+Inf`, then `_sum` and `_count`.
func (p *PromWriter) Histogram(name, help string, h HistogramSnapshot, labels ...Label) {
	if p.err != nil {
		return
	}
	if len(h.Bounds) != len(h.Counts) {
		p.err = fmt.Errorf("%w: histogram %s has %d bounds but %d counts", ErrInput, name, len(h.Bounds), len(h.Counts))
		return
	}
	if !p.family(name, "histogram", help) {
		return
	}
	for i, bound := range h.Bounds {
		le := Label{Name: "le", Value: formatFloat(bound)}
		p.line(name, name+"_bucket", float64(h.Counts[i]), append(append([]Label(nil), labels...), le))
	}
	p.line(name, name+"_bucket", float64(h.Count), append(append([]Label(nil), labels...), Label{Name: "le", Value: "+Inf"}))
	p.line(name, name+"_sum", h.Sum, labels)
	p.line(name, name+"_count", float64(h.Count), labels)
}

// WriteSortedLabels records one sample per key of a map-backed series (e.g.
// per-placement counts) in sorted key order, so scrapes are deterministic.
// kind is "counter" or "gauge".
func (p *PromWriter) WriteSortedLabels(name, help, kind, labelName string, values map[string]uint64, fixed ...Label) {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		labels := append(append([]Label(nil), fixed...), Label{Name: labelName, Value: k})
		if kind == "gauge" {
			p.Gauge(name, help, float64(values[k]), labels...)
		} else {
			p.Counter(name, help, float64(values[k]), labels...)
		}
	}
}

// Flush writes every family — header then its samples, families in
// first-seen order — and returns the first error recorded at any point.
func (p *PromWriter) Flush() error {
	if p.err != nil {
		return p.err
	}
	for _, fam := range p.order {
		if _, err := fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", fam, helpEscaper.Replace(p.helps[fam]), fam, p.kinds[fam]); err != nil {
			p.err = err
			return err
		}
		for _, ln := range p.lines[fam] {
			if _, err := io.WriteString(p.w, ln); err != nil {
				p.err = err
				return err
			}
		}
	}
	return nil
}

func (p *PromWriter) sample(fam, kind, help, series string, value float64, labels []Label) {
	if p.err != nil {
		return
	}
	if !p.family(fam, kind, help) {
		return
	}
	p.line(fam, series, value, labels)
}

// family registers a metric family the first time its name appears and
// enforces that a name keeps one type for the writer's lifetime.
func (p *PromWriter) family(name, kind, help string) bool {
	if declared, ok := p.kinds[name]; ok {
		if declared != kind {
			p.err = fmt.Errorf("%w: metric %s declared as both %s and %s", ErrInput, name, declared, kind)
			return false
		}
		return true
	}
	p.order = append(p.order, name)
	p.kinds[name] = kind
	p.helps[name] = help
	return true
}

func (p *PromWriter) line(fam, series string, value float64, labels []Label) {
	var sb strings.Builder
	sb.WriteString(series)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(value))
	sb.WriteByte('\n')
	p.lines[fam] = append(p.lines[fam], sb.String())
}

// helpEscaper applies the exposition-format HELP escapes, so a help text
// cannot end its comment line early.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeLabel applies the exposition-format label escapes: backslash, double
// quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(v[i])
		}
	}
	return sb.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
