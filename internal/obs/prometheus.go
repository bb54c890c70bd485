package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Exposition bucket ladders. The HDR histogram keeps 1920 internal buckets;
// scraping all of them would bloat every series, so exposition coarsens to
// a fixed power-of-four ladder. Bounds are powers of two, which align
// exactly with HDR bucket boundaries, so cumulative counts are exact (see
// Hist.CountAtMost) and the golden test can pin them.
var (
	// durations: 256ns .. ~17s, exposed in seconds
	durationBounds = pow2Bounds(8, 34)
	// raw values (batch sizes, version lags): 1 .. ~1M
	valueBounds = pow2Bounds(0, 20)
)

func pow2Bounds(lo, hi int) []int64 {
	var b []int64
	for k := lo; k <= hi; k += 2 {
		b = append(b, int64(1)<<uint(k))
	}
	return b
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format (version 0.0.4), grouped by metric name in first
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	seen := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		if !seen[m.name] {
			seen[m.name] = true
			if m.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", m.name, strings.ReplaceAll(m.help, "\n", " "))
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(w, "%s%s %s\n", m.name, labelString(m.labels, "", ""), m.scalarValue())
		case kindHist:
			writeHist(w, m)
		}
	}
}

func (m *metric) scalarValue() string {
	switch fn := m.fn.Load(); {
	case fn != nil:
		return formatFloat((*fn)())
	case m.counter != nil:
		return strconv.FormatUint(m.counter.Value(), 10)
	case m.gauge != nil:
		return strconv.FormatInt(m.gauge.Value(), 10)
	}
	return "0"
}

func writeHist(w io.Writer, m *metric) {
	bounds := valueBounds
	if m.scale != 1 {
		bounds = durationBounds
	}
	for _, bound := range bounds {
		le := formatFloat(float64(bound) * m.scale)
		fmt.Fprintf(w, "%s_bucket%s %d\n",
			m.name, labelString(m.labels, "le", le), m.hist.CountAtMost(bound))
	}
	count := m.hist.Count()
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, labelString(m.labels, "le", "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", m.name, labelString(m.labels, "", ""),
		formatFloat(float64(m.hist.Sum())*m.scale))
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, labelString(m.labels, "", ""), count)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...}; extraKey/extraVal append one more pair
// (the histogram `le` bound). Empty when there are no labels at all.
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mounted at /metrics by globed's -metrics-addr listener.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
