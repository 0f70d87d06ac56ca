package api

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// This file is a hand-rolled Prometheus text-exposition (format 0.0.4)
// builder, writer and strict parser. Every component that shows series on
// GET /metrics (the debug listener) writes them into one Exposition per
// scrape; the writer renders it, and the parser is the conformance checker
// the test layer (and any embedding program) uses to prove the output is
// scrapeable — all stdlib-only by design.

// Family type strings (the TYPE line vocabulary this writer emits).
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line of a family: the family name plus Suffix
// ("_bucket", "_sum", "_count" for histograms; empty otherwise), its
// labels, and the value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family: a HELP line, a TYPE line, and its samples.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Exposition is one scrape under construction. Components append their
// samples to it by family name; the first sample of a name creates the
// family with its HELP and TYPE, so a family is declared once however many
// components (a cluster node's led slots and replica stacks) write into it,
// and a family nobody wrote a sample to is not declared at all. Families
// keep the order of their first sample, samples the order they were added.
type Exposition struct {
	fams []Family
	at   map[string]int
}

// Add appends s to the family name, creating the family with help and typ
// if this is its first sample.
func (x *Exposition) Add(name, help, typ string, s Sample) {
	i, ok := x.at[name]
	if !ok {
		if x.at == nil {
			x.at = make(map[string]int)
		}
		i = len(x.fams)
		x.at[name] = i
		x.fams = append(x.fams, Family{Name: name, Help: help, Type: typ})
	}
	x.fams[i].Samples = append(x.fams[i].Samples, s)
}

// Counter appends one counter sample.
func (x *Exposition) Counter(name, help string, v float64, labels ...Label) {
	x.Add(name, help, TypeCounter, Sample{Labels: labels, Value: v})
}

// Gauge appends one gauge sample.
func (x *Exposition) Gauge(name, help string, v float64, labels ...Label) {
	x.Add(name, help, TypeGauge, Sample{Labels: labels, Value: v})
}

// Families returns the families built so far, in first-sample order.
func (x *Exposition) Families() []Family { return x.fams }

// ExpositionContentType is the Content-Type every handler that answers with
// WriteExposition sets.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromHandler serves one Exposition per scrape, filled by the collectors in
// order, in Prometheus text format.
func PromHandler(collect ...func(*Exposition)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var x Exposition
		for _, c := range collect {
			c(&x)
		}
		w.Header().Set("Content-Type", ExpositionContentType)
		_ = WriteExposition(w, x.fams)
	})
}

// WriteExposition renders the families in Prometheus text format. Names
// are sanitized and label values escaped, so no input can produce
// unparsable output (FuzzExposition pins this).
func WriteExposition(w io.Writer, fams []Family) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		name := sanitizeMetricName(f.Name)
		typ := f.Type
		switch typ {
		case TypeCounter, TypeGauge, TypeHistogram:
		default:
			typ = "untyped"
		}
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp(f.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
		for _, s := range f.Samples {
			bw.WriteString(name)
			if s.Suffix != "" {
				bw.WriteString(sanitizeSuffix(s.Suffix))
			}
			if len(s.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						bw.WriteByte(',')
					}
					bw.WriteString(sanitizeLabelName(l.Name))
					bw.WriteString(`="`)
					bw.WriteString(escapeLabelValue(l.Value))
					bw.WriteByte('"')
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// formatFloat renders a sample value ("+Inf", "-Inf" and "NaN" follow the
// exposition grammar).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func isMetricNameRune(r byte, first bool) bool {
	if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r == ':' {
		return true
	}
	return !first && r >= '0' && r <= '9'
}

// sanitizeMetricName replaces every rune the exposition grammar rejects
// with '_' (empty names become "_").
func sanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var b []byte
	for i := 0; i < len(name); i++ {
		if isMetricNameRune(name[i], i == 0) {
			continue
		}
		if b == nil {
			b = []byte(name)
		}
		b[i] = '_'
	}
	if b != nil {
		return string(b)
	}
	return name
}

// sanitizeSuffix sanitizes a sample suffix under non-first-rune rules (a
// suffix never starts a name).
func sanitizeSuffix(sfx string) string {
	var b []byte
	for i := 0; i < len(sfx); i++ {
		if isMetricNameRune(sfx[i], false) {
			continue
		}
		if b == nil {
			b = []byte(sfx)
		}
		b[i] = '_'
	}
	if b != nil {
		return string(b)
	}
	return sfx
}

// sanitizeLabelName is sanitizeMetricName minus ':' (label names don't
// allow it).
func sanitizeLabelName(name string) string {
	if name == "" {
		return "_"
	}
	b := []byte(name)
	for i := range b {
		c := b[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			b[i] = '_'
		}
	}
	return string(b)
}

// escapeLabelValue escapes backslash, double-quote and newline per the
// exposition grammar.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes backslash and newline (HELP text allows quotes).
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// --- strict parser / conformance checker ---------------------------------------

// ParseExposition parses Prometheus text exposition and enforces the
// grammar strictly: well-formed HELP/TYPE lines, valid metric and label
// names, properly escaped label values, parsable sample values, every
// sample preceded by its family's TYPE line, histogram samples using only
// the _bucket/_sum/_count suffixes. It returns the reassembled families.
func ParseExposition(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var fams []*Family
	byName := make(map[string]*Family)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				return nil, fmt.Errorf("line %d: malformed HELP line %q", lineNo, line)
			}
			if _, dup := byName[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate family %q", lineNo, name)
			}
			fam := &Family{Name: name, Help: rest[len(name)+1:]}
			fams = append(fams, fam)
			byName[name] = fam
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line[len("# TYPE "):])
			if len(fields) != 2 || !validMetricName(fields[0]) {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			switch fields[1] {
			case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[1])
			}
			fam, ok := byName[fields[0]]
			if !ok {
				fam = &Family{Name: fields[0]}
				fams = append(fams, fam)
				byName[fields[0]] = fam
			} else if fam.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, fields[0])
			}
			fam.Type = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		sample, name, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := familyForSample(byName, name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q precedes its TYPE line", lineNo, name)
		}
		if fam.Type == "" {
			return nil, fmt.Errorf("line %d: family %q has samples but no TYPE", lineNo, fam.Name)
		}
		sample.Suffix = strings.TrimPrefix(name, fam.Name)
		if fam.Type == TypeHistogram {
			switch sample.Suffix {
			case "_bucket", "_sum", "_count":
			default:
				return nil, fmt.Errorf("line %d: histogram sample %q must use _bucket/_sum/_count", lineNo, name)
			}
		} else if sample.Suffix != "" {
			return nil, fmt.Errorf("line %d: sample name %q does not match family %q", lineNo, name, fam.Name)
		}
		fam.Samples = append(fam.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]Family, len(fams))
	for i, f := range fams {
		out[i] = *f
	}
	return out, nil
}

// familyForSample resolves the family a sample name belongs to, accepting
// histogram suffixes. Longest family name wins so itag_foo and
// itag_foo_count as separate families stay unambiguous.
func familyForSample(byName map[string]*Family, sample string) *Family {
	if fam, ok := byName[sample]; ok {
		return fam
	}
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, sfx); ok {
			if fam, exists := byName[base]; exists && fam.Type == TypeHistogram {
				return fam
			}
		}
	}
	return nil
}

// parseSampleLine parses `name{label="value",...} value` (timestamps are
// not emitted by this writer and are rejected).
func parseSampleLine(line string) (Sample, string, error) {
	var s Sample
	i := 0
	for i < len(line) && isMetricNameRune(line[i], i == 0) {
		i++
	}
	name := line[:i]
	if name == "" {
		return s, "", fmt.Errorf("malformed sample line %q", line)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i < len(line) && line[i] == '}' {
				i++
				break
			}
			start := i
			for i < len(line) && line[i] != '=' {
				i++
			}
			lname := line[start:i]
			if !validLabelName(lname) {
				return s, "", fmt.Errorf("bad label name %q", lname)
			}
			if i+1 >= len(line) || line[i+1] != '"' {
				return s, "", fmt.Errorf("label %q missing quoted value", lname)
			}
			i += 2
			var val strings.Builder
			for {
				if i >= len(line) {
					return s, "", fmt.Errorf("unterminated label value for %q", lname)
				}
				c := line[i]
				if c == '\\' {
					if i+1 >= len(line) {
						return s, "", fmt.Errorf("dangling escape in label %q", lname)
					}
					switch line[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, "", fmt.Errorf("invalid escape \\%c in label %q", line[i+1], lname)
					}
					i += 2
					continue
				}
				if c == '"' {
					i++
					break
				}
				val.WriteByte(c)
				i++
			}
			s.Labels = append(s.Labels, Label{Name: lname, Value: val.String()})
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return s, "", fmt.Errorf("missing value separator in %q", line)
	}
	valueStr := line[i+1:]
	if valueStr == "" || strings.ContainsAny(valueStr, " \t") {
		return s, "", fmt.Errorf("malformed value %q (timestamps unsupported)", valueStr)
	}
	v, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		return s, "", fmt.Errorf("bad sample value %q: %v", valueStr, err)
	}
	s.Value = v
	return s, name, nil
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		if !isMetricNameRune(name[i], i == 0) {
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || (i > 0 && c >= '0' && c <= '9')) {
			return false
		}
	}
	return true
}

// CheckHistograms validates histogram semantics across the families:
// cumulative buckets are monotone non-decreasing in le order, the +Inf
// bucket exists and equals _count, and _sum/_count are present for every
// label set that has buckets. It is the semantic half of the conformance
// suite (ParseExposition is the grammar half).
func CheckHistograms(fams []Family) error {
	for _, fam := range fams {
		if fam.Type != TypeHistogram {
			continue
		}
		type series struct {
			bounds   []float64
			counts   []float64
			sum      *float64
			count    *float64
			infCount *float64
		}
		groups := make(map[string]*series)
		key := func(labels []Label) string {
			kept := make([]string, 0, len(labels))
			for _, l := range labels {
				if l.Name == "le" {
					continue
				}
				kept = append(kept, l.Name+"="+l.Value)
			}
			sort.Strings(kept)
			return strings.Join(kept, ",")
		}
		for _, s := range fam.Samples {
			g := groups[key(s.Labels)]
			if g == nil {
				g = &series{}
				groups[key(s.Labels)] = g
			}
			switch s.Suffix {
			case "_bucket":
				var le string
				for _, l := range s.Labels {
					if l.Name == "le" {
						le = l.Value
					}
				}
				if le == "" {
					return fmt.Errorf("%s: bucket sample without le label", fam.Name)
				}
				if le == "+Inf" {
					v := s.Value
					g.infCount = &v
					g.bounds = append(g.bounds, math.Inf(1))
				} else {
					bound, err := strconv.ParseFloat(le, 64)
					if err != nil {
						return fmt.Errorf("%s: bad le %q: %v", fam.Name, le, err)
					}
					g.bounds = append(g.bounds, bound)
				}
				g.counts = append(g.counts, s.Value)
			case "_sum":
				v := s.Value
				g.sum = &v
			case "_count":
				v := s.Value
				g.count = &v
			}
		}
		for labels, g := range groups {
			if len(g.counts) == 0 {
				return fmt.Errorf("%s{%s}: no buckets", fam.Name, labels)
			}
			for i := 1; i < len(g.counts); i++ {
				if g.bounds[i] < g.bounds[i-1] {
					return fmt.Errorf("%s{%s}: le bounds out of order", fam.Name, labels)
				}
				if g.counts[i] < g.counts[i-1] {
					return fmt.Errorf("%s{%s}: cumulative bucket counts not monotone (%g after %g)",
						fam.Name, labels, g.counts[i], g.counts[i-1])
				}
			}
			if g.infCount == nil {
				return fmt.Errorf("%s{%s}: missing +Inf bucket", fam.Name, labels)
			}
			if g.count == nil || g.sum == nil {
				return fmt.Errorf("%s{%s}: missing _sum or _count", fam.Name, labels)
			}
			if *g.infCount != *g.count {
				return fmt.Errorf("%s{%s}: +Inf bucket %g != _count %g", fam.Name, labels, *g.infCount, *g.count)
			}
			if *g.count > 0 && *g.sum < 0 {
				return fmt.Errorf("%s{%s}: negative _sum %g with count %g", fam.Name, labels, *g.sum, *g.count)
			}
		}
	}
	return nil
}
