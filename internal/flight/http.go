package flight

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"

	"rtopex/internal/obs"
)

// Routes is the recorder's HTTP surface, for mounting on an obs server
// (obs.Serve(addr, reg, rec.Routes()...)):
//
//	/dossiers        JSON index: counters plus recent dossier summaries
//	/dossiers/<seq>  one full dossier (recent cache, then spool)
//	/events          SSE stream; each captured dossier arrives as one
//	                 "dossier" event carrying its summary JSON
func (r *Recorder) Routes() []obs.Route {
	return []obs.Route{
		{Pattern: "/dossiers", Handler: http.HandlerFunc(r.serveIndex)},
		{Pattern: "/dossiers/", Handler: http.HandlerFunc(r.serveDossier)},
		{Pattern: "/events", Handler: http.HandlerFunc(r.serveEvents)},
	}
}

// Index is the /dossiers payload.
type Index struct {
	Triggers   int64     `json:"triggers"`
	Written    int64     `json:"written"`
	Suppressed int64     `json:"suppressed"`
	Lost       int64     `json:"lost,omitempty"`
	Spooled    int       `json:"spooled,omitempty"`
	Dossiers   []Summary `json:"dossiers"`
}

func (r *Recorder) serveIndex(w http.ResponseWriter, req *http.Request) {
	idx := Index{
		Triggers:   r.Triggers(),
		Written:    r.Written(),
		Suppressed: r.Suppressed(),
		Lost:       r.Lost(),
		Dossiers:   r.Recent(),
	}
	if r.cfg.Spool != nil {
		idx.Spooled = r.cfg.Spool.Len()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(idx)
}

func (r *Recorder) serveDossier(w http.ResponseWriter, req *http.Request) {
	rest := strings.TrimPrefix(req.URL.Path, "/dossiers/")
	seq, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		http.Error(w, "bad dossier seq", http.StatusBadRequest)
		return
	}
	d, ok := r.Dossier(seq)
	if !ok && r.cfg.Spool != nil {
		prefix := fmt.Sprintf("dossier-%06d-", seq)
		for _, p := range r.cfg.Spool.List() {
			if strings.HasPrefix(filepath.Base(p), prefix) {
				if sd, err := ReadDossierFile(p); err == nil {
					d, ok = sd, true
				}
				break
			}
		}
	}
	if !ok {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = d.WriteJSON(w)
}

func (r *Recorder) serveEvents(w http.ResponseWriter, req *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the preamble goes out: a client that has seen it may
	// trigger a dossier at once, and the fan-out must already include us.
	ch, cancel := r.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprint(w, ": rtopex flight recorder event stream\n\n")
	fl.Flush()
	for {
		select {
		case <-req.Context().Done():
			return
		case <-r.done:
			return
		case sum := <-ch:
			fmt.Fprintf(w, "event: dossier\ndata: %s\n\n", sum)
			fl.Flush()
		}
	}
}
