package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"epidemic"
)

// healthReply is the /healthz response body. Status degrades from "ok"
// when the cluster stall detector flags a convergence problem; Stalls
// then lists the reasons.
type healthReply struct {
	Status        string                  `json:"status"`
	Site          int                     `json:"site"`
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Members       int                     `json:"members"`
	Peers         int                     `json:"peers"`
	HotRumors     int                     `json:"hot_rumors"`
	StoreKeys     int                     `json:"store_keys"`
	Stalls        []epidemic.ClusterStall `json:"stalls,omitempty"`
}

// startAdmin serves the observability endpoints on addr: /metrics
// (Prometheus text format), /metrics/history (retained metric time
// series, ?metric=&window=&step=; 503 unless -history-step), /healthz
// (JSON liveness + topology summary, "degraded" with reasons when the
// stall detector fires), /cluster (this replica's whole-cluster digest
// view; 503 unless -cluster-digests), /events (recent node events, newest
// last, ?n= to limit, ?since= for incremental polls, ?key= to filter),
// /trace (this replica's hop spans, ?key= to filter; 503 unless
// -trace-ring is set), /flight (anomaly flight dumps, ?name= for one raw
// dump; 503 unless -flight-dir), and the standard /debug/pprof/*
// profiles. Handlers are mounted on a private mux, not
// http.DefaultServeMux, so nothing else in the process leaks in.
func (d *daemon) startAdmin(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("admin listen %s: %w", addr, err)
	}
	started := time.Now()

	mux := http.NewServeMux()
	mux.Handle("/metrics", d.reg.Handler())
	mux.Handle("/events", d.ring.Handler())
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, req *http.Request) {
		if d.history == nil {
			http.Error(w, "history disabled (-history-step)", http.StatusServiceUnavailable)
			return
		}
		d.history.Handler().ServeHTTP(w, req)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, req *http.Request) {
		if d.flight == nil {
			http.Error(w, "flight recorder disabled (-flight-dir)", http.StatusServiceUnavailable)
			return
		}
		d.flight.Handler().ServeHTTP(w, req)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		n := d.node
		reply := healthReply{
			Status:        "ok",
			Site:          int(n.Site()),
			UptimeSeconds: time.Since(started).Seconds(),
			Members:       len(epidemic.Members(n.Store())),
			Peers:         len(n.Peers()),
			HotRumors:     len(n.HotEntries()),
			StoreKeys:     n.Store().Len(),
		}
		if st := d.status.Load(); st != nil && len(st.Stalls) > 0 {
			reply.Status = "degraded"
			reply.Stalls = st.Stalls
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reply)
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) {
		st := d.status.Load()
		if st == nil {
			http.Error(w, "cluster digests disabled (-cluster-digests)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		tr := d.node.Tracer()
		if tr == nil {
			http.Error(w, "tracing disabled (-trace-ring)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(tr.DumpFor(req.URL.Query().Get("key")))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	d.adminLn = ln
	d.adminSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = d.adminSrv.Serve(ln) }()
	return nil
}
