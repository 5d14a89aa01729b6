package metrics

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4). Output is deterministic for a given snapshot:
// fixed metric order, ops and phases in enum order, buckets ascending.
// Operation classes with no activity are omitted to keep the exposition
// proportional to what actually ran.
func WritePrometheus(w io.Writer, s Snapshot) error {
	bw := &errWriter{w: w}
	for k := range counterTable {
		r := &counterTable[k]
		name := r.series()
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, r.help, name, name, *r.field(&s))
	}

	active := func(o OpStats) bool { return o.Count != 0 || o.Lookups() != 0 }

	fmt.Fprintf(bw, "# HELP lht_op_total Completed index operations per class.\n# TYPE lht_op_total counter\n")
	for op := Op(0); op < NumOps; op++ {
		if o := s.Latency.Ops[op]; active(o) {
			fmt.Fprintf(bw, "lht_op_total{op=%q} %d\n", op, o.Count)
		}
	}
	fmt.Fprintf(bw, "# HELP lht_op_errors_total Index operations per class that returned an error.\n# TYPE lht_op_errors_total counter\n")
	for op := Op(0); op < NumOps; op++ {
		if o := s.Latency.Ops[op]; active(o) {
			fmt.Fprintf(bw, "lht_op_errors_total{op=%q} %d\n", op, o.Errors)
		}
	}
	fmt.Fprintf(bw, "# HELP lht_phase_lookups_total DHT-lookups attributed to an operation class and algorithm phase.\n# TYPE lht_phase_lookups_total counter\n")
	for op := Op(0); op < NumOps; op++ {
		o := s.Latency.Ops[op]
		if !active(o) {
			continue
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if n := o.Phases[ph]; n != 0 {
				fmt.Fprintf(bw, "lht_phase_lookups_total{op=%q,phase=%q} %d\n", op, ph, n)
			}
		}
	}
	fmt.Fprintf(bw, "# HELP lht_op_latency_seconds End-to-end index operation latency per class.\n# TYPE lht_op_latency_seconds histogram\n")
	for op := Op(0); op < NumOps; op++ {
		o := s.Latency.Ops[op]
		if o.Hist.Count() == 0 {
			continue
		}
		var cum int64
		for i, n := range o.Hist.Counts {
			cum += n
			if n == 0 && i != NumLatencyBuckets-1 {
				continue
			}
			le := "+Inf"
			if i != NumLatencyBuckets-1 {
				le = strconv.FormatFloat(float64(BucketUpper(i))/1e9, 'g', -1, 64)
			}
			fmt.Fprintf(bw, "lht_op_latency_seconds_bucket{op=%q,le=%q} %d\n", op, le, cum)
		}
		fmt.Fprintf(bw, "lht_op_latency_seconds_sum{op=%q} %g\n", op, float64(o.Hist.Sum)/1e9)
		fmt.Fprintf(bw, "lht_op_latency_seconds_count{op=%q} %d\n", op, o.Hist.Count())
	}
	return bw.err
}

// errWriter latches the first write error so the exposition loop stays
// unconditional.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}

// Handler serves the snapshot function in Prometheus text format.
func Handler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, snap())
	})
}

// NewMux returns an http.ServeMux serving /metrics in Prometheus text
// format plus the standard net/http/pprof profiling endpoints under
// /debug/pprof/, the export surface both lht-node and lht-bench mount.
func NewMux(snap func() Snapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(snap))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
