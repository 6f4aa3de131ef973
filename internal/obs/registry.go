package obs

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricNameRE is the Prometheus metric/label name grammar.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Desc declares one counter or gauge family. Key names it in the flat view
// (JSON /metrics, stats history); the Prometheus name is the registry's
// prefix plus Key. Kind is "counter" or "gauge".
type Desc struct {
	Key, Help, Kind string
}

// Row is one label value's samples of a Table, one value per Desc in
// declaration order.
type Row struct {
	Label  string
	Values []float64
}

// Registry is the one list of metric families behind an exposition
// endpoint, kept in name order. Each family is declared once, and both
// views derive from that declaration: WritePrometheus renders the text
// exposition and Values reads the flat key → value map. Counter and gauge
// values are read at scrape time, so owners keep their own atomics;
// histograms are owned by the registry. Declaring a name twice or with an
// invalid name panics — a programmer error a test hits immediately.
type Registry struct {
	prefix string
	mu     sync.Mutex
	fams   []*family
}

// family is one declared metric family. Exactly one of read, tab, info,
// hist and vec is set.
type family struct {
	Desc
	name string
	read func() float64 // unlabeled counter or gauge
	tab  *table         // labeled counter or gauge: column col of tab
	col  int
	info string // constant-label selector of an always-1 info gauge
	hist *Histogram
	vec  *HistogramVec
}

// table is a group of labeled families sampled together: rows is called
// once per scrape for all of them.
type table struct {
	label string
	rows  func() []Row
}

// NewRegistry returns an empty registry whose Prometheus names are prefix
// followed by each family's key.
func NewRegistry(prefix string) *Registry {
	return &Registry{prefix: prefix}
}

func (r *Registry) add(f *family) {
	f.name = r.prefix + f.Key
	if !metricNameRE.MatchString(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	if f.Kind != "counter" && f.Kind != "gauge" && f.Kind != "histogram" {
		panic(fmt.Sprintf("obs: metric %q has unknown kind %q", f.name, f.Kind))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, found := slices.BinarySearchFunc(r.fams, f.name, func(g *family, name string) int { return strings.Compare(g.name, name) })
	if found {
		panic(fmt.Sprintf("obs: metric %q declared twice", f.name))
	}
	// Copy on write: a scrape iterating the old slice is never disturbed.
	r.fams = slices.Insert(slices.Clip(r.fams), i, f)
}

func checkLabel(label string) {
	if !metricNameRE.MatchString(label) {
		panic(fmt.Sprintf("obs: invalid label name %q", label))
	}
}

// Scalar declares an unlabeled counter or gauge read from read at scrape
// time; it is the one family kind that appears in Values.
func (r *Registry) Scalar(d Desc, read func() float64) {
	r.add(&family{Desc: d, read: read})
}

// Table declares one labeled family per Desc, all partitioned by label and
// sampled together: rows is called once per scrape and returns one Row per
// label value, in any order (the exposition sorts them).
func (r *Registry) Table(label string, descs []Desc, rows func() []Row) {
	checkLabel(label)
	tab := &table{label: label, rows: rows}
	for i, d := range descs {
		r.add(&family{Desc: d, tab: tab, col: i})
	}
}

// Info declares an always-1 gauge with constant labels — the build-info
// idiom (fpd_build_info{version="...",go_version="..."} 1).
func (r *Registry) Info(key, help string, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		checkLabel(k)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	r.add(&family{Desc: Desc{key, help, "gauge"}, info: strings.Join(parts, ",")})
}

// Histogram declares a histogram; nil bounds use DefBuckets.
func (r *Registry) Histogram(key, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.add(&family{Desc: Desc{key, help, "histogram"}, hist: h})
	return h
}

// HistogramVec declares a histogram family partitioned by one label; nil
// bounds use DefBuckets.
func (r *Registry) HistogramVec(key, help, label string, bounds []float64) *HistogramVec {
	checkLabel(label)
	v := NewHistogramVec(label, bounds)
	r.add(&family{Desc: Desc{key, help, "histogram"}, vec: v})
	return v
}

func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fams
}

// historyQuantiles are the quantiles Values adds per unlabeled histogram
// when asked for them (job_run_seconds_p50 and friends).
var historyQuantiles = []struct {
	suffix string
	q      float64
}{{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}}

// Values reads the flat view: every unlabeled counter and gauge under its
// key. withQuantiles adds <key>_p50/_p90/_p99 for every unlabeled
// histogram — the stats-history sample shape.
func (r *Registry) Values(withQuantiles bool) map[string]float64 {
	fams := r.families()
	vals := make(map[string]float64, len(fams)+3*len(historyQuantiles))
	for _, f := range fams {
		switch {
		case f.read != nil:
			vals[f.Key] = f.read()
		case f.hist != nil && withQuantiles:
			hs := f.hist.Snapshot()
			for _, hq := range historyQuantiles {
				vals[f.Key+hq.suffix] = hs.Quantile(hq.q)
			}
		}
	}
	return vals
}

// WritePrometheus writes every family in Prometheus text exposition format
// (version 0.0.4), sorted by name so scrapes are diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	rows := make(map[*table][]Row)
	for _, f := range r.families() {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.Kind)
		switch {
		case f.read != nil:
			writeSample(&b, f.name, "", f.read())
		case f.tab != nil:
			rs, ok := rows[f.tab]
			if !ok {
				rs = f.tab.rows()
				sort.Slice(rs, func(i, j int) bool { return rs[i].Label < rs[j].Label })
				rows[f.tab] = rs
			}
			for _, row := range rs {
				writeSample(&b, f.name, fmt.Sprintf("%s=%q", f.tab.label, row.Label), row.Values[f.col])
			}
		case f.info != "":
			writeSample(&b, f.name, f.info, 1)
		case f.hist != nil:
			writeHistogram(&b, f.name, "", f.hist.Snapshot())
		case f.vec != nil:
			for _, ls := range f.vec.snapshotAll() {
				// %q escaping (backslash, quote, newline) matches the
				// exposition format's label escaping for the printable
				// values used here (route patterns, stage names).
				writeHistogram(&b, f.name, fmt.Sprintf("%s=%q", f.vec.Label(), ls.value), ls.snap)
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// writeSample writes one "name value" (or "name{labels} value") line.
func writeSample(b *bytes.Buffer, name, labels string, value float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s%s %s\n", name, labels, formatValue(value))
}

// writeHistogram writes the cumulative _bucket series plus _sum and
// _count, with sel ("label=\"value\"") merged into each bucket's le
// selector.
func writeHistogram(b *bytes.Buffer, name, sel string, s HistSnapshot) {
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatValue(s.Bounds[i])
		}
		labels := fmt.Sprintf("le=%q", le)
		if sel != "" {
			labels = sel + "," + labels
		}
		fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, labels, cum)
	}
	suffix := ""
	if sel != "" {
		suffix = "{" + sel + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, formatValue(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, s.Count)
}

// formatValue renders a float the way Prometheus clients do: shortest
// round-trip representation.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
