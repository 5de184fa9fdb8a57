package main

// The exploration routes. Campaigns and syntheses run on one kernel
// (internal/explore), so they share one route set, mounted once per kind
// (see newMux for the routes).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"stopwatchsim/internal/campaign"
	"stopwatchsim/internal/explore"
	"stopwatchsim/internal/synth"
)

// explorations is one exploration kind's HTTP surface; P is its spec.
type explorations[S, E, P any] struct {
	base string // route prefix, e.g. "/v1/campaigns"
	eng  *explore.Engine[S, E]
	// parse decodes a request body; start starts the exploration it
	// specifies. Starts are content-addressed: re-posting the same body
	// returns the existing (possibly completed) exploration instead of
	// launching a duplicate.
	parse func(io.Reader) (P, error)
	start func(P) (S, error)
	// doc is the list/status wire form; listings elide the point list
	// (it can be large), the per-exploration view keeps it.
	doc func(st S, withPoints bool) any
	// export names the result document's route and builds it; ok is false
	// while the exploration has none yet (409).
	export     string
	exportBody func(S) (body any, ok bool)
}

func mountExplorations[S, E, P any](mux *http.ServeMux, x explorations[S, E, P]) {
	mux.HandleFunc("POST "+x.base, x.startRun)
	mux.HandleFunc("GET "+x.base, x.list)
	mux.HandleFunc("GET "+x.base+"/{id}", x.status)
	mux.HandleFunc("DELETE "+x.base+"/{id}", x.cancel)
	mux.HandleFunc("GET "+x.base+"/{id}/"+x.export, x.result)
	mux.HandleFunc("GET "+x.base+"/{id}/events", x.events)
}

// campaignRoutes and synthRoutes are the two kinds' route sets.
func campaignRoutes(camps *campaign.Engine) explorations[campaign.State, campaign.Event, *campaign.Spec] {
	return explorations[campaign.State, campaign.Event, *campaign.Spec]{
		base:  "/v1/campaigns",
		eng:   camps.Engine,
		parse: campaign.ParseSpec,
		start: camps.Start,
		doc: func(st campaign.State, withPoints bool) any {
			d := campaignDoc{State: st, PointsDone: len(st.Points)}
			if !withPoints {
				d.Points = nil
			}
			return d
		},
		// The summary (point accounting, critical point or frontier table,
		// convergence counters) is available at any time: a running
		// campaign reports its progress so far.
		export:     "result",
		exportBody: func(st campaign.State) (any, bool) { return st.Summarize(), true },
	}
}

func synthRoutes(synths *synth.Engine) explorations[synth.State, synth.Event, *synth.Space] {
	return explorations[synth.State, synth.Event, *synth.Space]{
		base:  "/v1/synth",
		eng:   synths.Engine,
		parse: synth.ParseSpace,
		start: synths.Start,
		doc: func(st synth.State, withPoints bool) any {
			d := synthDoc{State: st, PointsDone: len(st.Points)}
			if !withPoints {
				d.Points = nil
			}
			return d
		},
		// The region (schema synth/region/v1) only exists once the
		// synthesis is terminal: a partial cover would misrepresent the
		// boundary.
		export: "region",
		exportBody: func(st synth.State) (any, bool) {
			return st.Region, st.Region != nil
		},
	}
}

// campaignDoc and synthDoc are the list/status wire forms: the state plus
// the count of points done.
type campaignDoc struct {
	campaign.State
	PointsDone int `json:"points_done"`
}

type synthDoc struct {
	synth.State
	PointsDone int `json:"points_done"`
}

// startRun parses a request body (application/json) and starts the
// exploration. ?wait=true blocks until it reaches a terminal state.
func (x explorations[S, E, P]) startRun(w http.ResponseWriter, r *http.Request) {
	spec, err := x.parse(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	st, err := x.start(spec)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	h := x.eng.Header(&st)
	if r.URL.Query().Get("wait") == "true" {
		final, err := x.eng.Wait(r.Context(), *h.ID)
		if err != nil {
			httpError(w, http.StatusGatewayTimeout, "waiting for %s: %v", *h.ID, err)
			return
		}
		writeJSON(w, http.StatusOK, x.doc(final, true))
		return
	}
	w.Header().Set("Location", x.base+"/"+*h.ID)
	code := http.StatusAccepted
	if *h.Status != explore.StatusRunning {
		code = http.StatusOK // content-addressed replay of a finished exploration
	}
	writeJSON(w, code, x.doc(st, false))
}

func (x explorations[S, E, P]) list(w http.ResponseWriter, r *http.Request) {
	all := x.eng.List()
	docs := make([]any, len(all))
	for i, st := range all {
		docs[i] = x.doc(st, false)
	}
	writeJSON(w, http.StatusOK, docs)
}

// get fetches the exploration named by the path, answering 404 itself
// when it is unknown.
func (x explorations[S, E, P]) get(w http.ResponseWriter, r *http.Request) (S, bool) {
	st, ok := x.eng.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown %s %q", x.eng.Noun(), r.PathValue("id"))
	}
	return st, ok
}

func (x explorations[S, E, P]) status(w http.ResponseWriter, r *http.Request) {
	if st, ok := x.get(w, r); ok {
		writeJSON(w, http.StatusOK, x.doc(st, true))
	}
}

func (x explorations[S, E, P]) cancel(w http.ResponseWriter, r *http.Request) {
	st, ok := x.get(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if !x.eng.Cancel(id) {
		httpError(w, http.StatusConflict, "%s %s already %s", x.eng.Noun(), id, *x.eng.Header(&st).Status)
		return
	}
	st, _ = x.eng.Get(id)
	writeJSON(w, http.StatusOK, x.doc(st, false))
}

func (x explorations[S, E, P]) result(w http.ResponseWriter, r *http.Request) {
	st, ok := x.get(w, r)
	if !ok {
		return
	}
	body, ok := x.exportBody(st)
	if !ok {
		h := x.eng.Header(&st)
		httpError(w, http.StatusConflict, "%s %s is %s and has no %s yet", x.eng.Noun(), *h.ID, *h.Status, x.export)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// events serves the live SSE stream of point settlements, quarantines and
// the terminal status, each with coverage and ETA. The first record is
// always a synthetic status snapshot, so subscribers to an
// already-finished exploration are answered instead of hanging.
func (x explorations[S, E, P]) events(w http.ResponseWriter, r *http.Request) {
	first, ch, cancel, ok := x.eng.Subscribe(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown %s %q", x.eng.Noun(), r.PathValue("id"))
		return
	}
	serveSSE(w, r, first, ch, cancel)
}

// serveSSE writes first and then every subscribed event as SSE data
// records until the client disconnects. The subscription is best-effort
// by construction (the hub drops on a full buffer), so a slow client
// loses events rather than stalling the exploration.
func serveSSE(w http.ResponseWriter, r *http.Request, first any, ch <-chan any, cancel func()) {
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	write := func(ev any) {
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", b)
		fl.Flush()
	}
	write(first)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			write(ev)
		}
	}
}

// exploreCounters writes one kind's lifecycle and point-source metric
// families, saserve_<kind>_*: plural and noun word the help strings
// ("Campaigns started fresh.", "Campaign points answered by ...").
func exploreCounters(counter func(name, help string, v int64), kind, plural, noun string, m explore.Metrics) {
	counter(kind+"_started_total", plural+" started fresh.", m.Started)
	counter(kind+"_resumed_total", plural+" resumed from a checkpoint.", m.Resumed)
	counter(kind+"_done_total", plural+" completed.", m.Done)
	counter(kind+"_failed_total", plural+" failed.", m.Failed)
	counter(kind+"_canceled_total", plural+" canceled.", m.Canceled)
	counter(kind+"_points_computed_total", noun+" points answered by a fresh run.", m.PointsComputed)
	counter(kind+"_points_cache_memory_total", noun+" points answered by the memory cache.", m.PointsCacheMemory)
	counter(kind+"_points_cache_disk_total", noun+" points answered by the persistent tier.", m.PointsCacheDisk)
	counter(kind+"_points_checkpoint_total", noun+" points answered by resumed checkpoints.", m.PointsCheckpoint)
}
