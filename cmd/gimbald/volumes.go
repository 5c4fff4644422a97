// gimbald's volume control plane: a CSI-shaped JSON facade over
// internal/volume mounted on the admin mux. The daemon's data path speaks
// raw SSD offsets over TCP, so this manager runs provisioning-only (nil
// event loop, no device trims): it owns names, sizes, QoS classes,
// snapshots/clones, and exact capacity accounting, and initiators carve
// their offset ranges out of what they provision here.
//
//	GET    /volumes                   list volumes + usage
//	POST   /volumes                   {"name","size_bytes","qos_class","thick"}
//	GET    /volumes/{name}            one volume
//	DELETE /volumes/{name}            delete volume (204 also when absent)
//	POST   /volumes/{name}/resize     {"size_bytes"}
//	POST   /volumes/{name}/snapshots  {"name"} -> snapshot
//	GET    /snapshots                 list snapshots
//	GET    /snapshots/{name}          one snapshot
//	DELETE /snapshots/{name}          delete snapshot (409 while clones live, 204 also when absent)
//	POST   /snapshots/{name}/clones   {"name","qos_class"} -> writable clone
//	GET    /qos-classes               the class menu and compiled policy
//
// Mutations are idempotent the way the CSI spec asks, so an orchestrator
// may retry a request whose reply it lost: a create, snapshot or clone
// against a taken name returns 200 and the existing object when the
// parameters are the ones that made it and 409 when they differ; DELETE of
// an absent volume or snapshot is 204. A mutation without the
// -admin-token bearer token is 401, one while draining 503, and a method a
// path does not serve 405. The mux cleans paths: one with an empty segment
// ("/volumes//resize") is redirected (301) to its clean form.
package main

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"gimbal/internal/volume"
)

// volumeServer serializes HTTP access to a provisioning-only Manager. The
// admin mux serves requests concurrently, so every entry point takes mu;
// the draining latch flips on SIGTERM and fails mutations with 503 while
// reads keep serving until the listener closes.
type volumeServer struct {
	mu       sync.Mutex
	m        *volume.Manager
	token    string // bearer token gating mutations; "" leaves them open
	draining atomic.Bool
}

// newVolumeServer builds the control plane over the daemon's SSD geometry.
// Backends carry capacity only: constant headroom (no live load signal on
// the control path) and no target (nothing submits device IO). A non-empty
// token makes every mutating endpoint require "Authorization: Bearer
// <token>"; reads stay open (they carry no more than /stats already does).
func newVolumeServer(classes *volume.ClassSet, ssds int, capacity int64, token string) *volumeServer {
	disks := make([]volume.SSD, ssds)
	for i := range disks {
		disks[i] = volume.SSD{Capacity: capacity, Headroom: func() int { return 1 }}
	}
	return &volumeServer{m: volume.NewNodeManager(nil, classes, disks), token: token}
}

// Drain flips the server into shutdown mode: mutating endpoints return
// 503 so orchestrators stop provisioning against a dying daemon, while
// reads (state recovery by a successor) keep working.
func (vs *volumeServer) Drain() { vs.draining.Store(true) }

func (vs *volumeServer) register(mux *http.ServeMux) {
	mux.HandleFunc("/volumes", vs.handleVolumes)
	mux.HandleFunc("/volumes/", vs.handleVolume)
	mux.HandleFunc("/snapshots", vs.handleSnapshots)
	mux.HandleFunc("/snapshots/", vs.handleSnapshot)
	mux.HandleFunc("/qos-classes", vs.handleClasses)
}

// Request bodies (replies are internal/volume's wire types).

type createVolumeReq struct {
	Name      string `json:"name"`
	SizeBytes int64  `json:"size_bytes"`
	QoSClass  string `json:"qos_class"`
	Thick     bool   `json:"thick"`
}

type resizeReq struct {
	SizeBytes int64 `json:"size_bytes"`
}

type snapshotReq struct {
	Name string `json:"name"`
}

type cloneReq struct {
	Name     string `json:"name"`
	QoSClass string `json:"qos_class"`
}

func volInfo(v *volume.Volume) volume.Info {
	return volume.Info{
		Name:           v.Name(),
		SizeBytes:      v.Size(),
		QoSClass:       v.ClassName(),
		Thick:          v.Thick(),
		Parent:         v.Parent(),
		AllocatedBytes: v.AllocatedBytes(),
	}
}

func snapInfo(s *volume.Snapshot) volume.SnapshotInfo {
	return volume.SnapshotInfo{Name: s.Name(), Source: s.Source(), SizeBytes: s.Size(), Clones: s.Clones()}
}

// volumeHTTPStatus maps the control plane's sentinel errors onto the CSI
// vocabulary: 404 unknown object, 409 name/lifecycle conflict, 507 out of
// capacity, 400 malformed request.
func volumeHTTPStatus(err error) int {
	switch {
	case errors.Is(err, volume.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, volume.ErrExists), errors.Is(err, volume.ErrSnapshotInUse):
		return http.StatusConflict
	case errors.Is(err, volume.ErrOutOfCapacity):
		return http.StatusInsufficientStorage
	case errors.Is(err, volume.ErrUnknownClass), errors.Is(err, volume.ErrInvalid):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeVolumeError(w http.ResponseWriter, err error) {
	writeJSON(w, volumeHTTPStatus(err), map[string]string{"error": err.Error()})
}

// sameClass reports whether a request's class name ("" = default) resolves
// to the class the existing volume is in.
func (vs *volumeServer) sameClass(v *volume.Volume, class string) bool {
	i, err := vs.m.Classes().Index(class)
	return err == nil && i == v.Class()
}

// gate authenticates and admits one mutation: bearer-token check first
// (constant-time compare), then the draining latch, then body decoding.
// It returns false after writing the error response.
func (vs *volumeServer) gate(w http.ResponseWriter, r *http.Request, body any) bool {
	if vs.token != "" {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(vs.token)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="gimbald volumes"`)
			writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "missing or invalid bearer token"})
			return false
		}
	}
	if vs.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining: volume provisioning disabled during shutdown"})
		return false
	}
	if body != nil {
		if err := json.NewDecoder(r.Body).Decode(body); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
			return false
		}
	}
	return true
}

func (vs *volumeServer) handleVolumes(w http.ResponseWriter, r *http.Request) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		vols := vs.m.List()
		out := volume.Listing{Usage: vs.m.Usage(), Volumes: make([]volume.Info, 0, len(vols))}
		for _, v := range vols {
			out.Volumes = append(out.Volumes, volInfo(v))
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req createVolumeReq
		if !vs.gate(w, r, &req) {
			return
		}
		v, err := vs.m.Create(volume.Spec{Name: req.Name, Size: req.SizeBytes, Class: req.QoSClass, Thick: req.Thick})
		if errors.Is(err, volume.ErrExists) {
			if old, _ := vs.m.Lookup(req.Name); old != nil && old.Parent() == "" && old.Size() == req.SizeBytes &&
				old.Thick() == req.Thick && vs.sameClass(old, req.QoSClass) {
				writeJSON(w, http.StatusOK, volInfo(old))
				return
			}
		}
		if err != nil {
			writeVolumeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, volInfo(v))
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// handleVolume serves /volumes/{name} and its /resize and /snapshots
// sub-resources.
func (vs *volumeServer) handleVolume(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/volumes/")
	name, sub, _ := strings.Cut(rest, "/")
	if name == "" {
		http.NotFound(w, r)
		return
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	switch {
	case sub == "" && r.Method == http.MethodGet:
		v, err := vs.m.Lookup(name)
		if err != nil {
			writeVolumeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, volInfo(v))
	case sub == "" && r.Method == http.MethodDelete:
		if !vs.gate(w, r, nil) {
			return
		}
		if err := vs.m.Delete(name); err != nil && !errors.Is(err, volume.ErrNotFound) {
			writeVolumeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case sub == "resize" && r.Method == http.MethodPost:
		var req resizeReq
		if !vs.gate(w, r, &req) {
			return
		}
		if err := vs.m.Resize(name, req.SizeBytes); err != nil {
			writeVolumeError(w, err)
			return
		}
		v, _ := vs.m.Lookup(name)
		writeJSON(w, http.StatusOK, volInfo(v))
	case sub == "snapshots" && r.Method == http.MethodPost:
		var req snapshotReq
		if !vs.gate(w, r, &req) {
			return
		}
		s, err := vs.m.Snapshot(name, req.Name)
		if errors.Is(err, volume.ErrExists) {
			if old, _ := vs.m.LookupSnapshot(req.Name); old != nil && old.Source() == name {
				writeJSON(w, http.StatusOK, snapInfo(old))
				return
			}
		}
		if err != nil {
			writeVolumeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, snapInfo(s))
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (vs *volumeServer) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	snaps := vs.m.ListSnapshots()
	out := make([]volume.SnapshotInfo, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, snapInfo(s))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSnapshot serves /snapshots/{name} and /snapshots/{name}/clones.
func (vs *volumeServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/snapshots/")
	name, sub, _ := strings.Cut(rest, "/")
	if name == "" {
		http.NotFound(w, r)
		return
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	switch {
	case sub == "" && r.Method == http.MethodGet:
		s, err := vs.m.LookupSnapshot(name)
		if err != nil {
			writeVolumeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, snapInfo(s))
	case sub == "" && r.Method == http.MethodDelete:
		if !vs.gate(w, r, nil) {
			return
		}
		if err := vs.m.DeleteSnapshot(name); err != nil && !errors.Is(err, volume.ErrNotFound) {
			writeVolumeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case sub == "clones" && r.Method == http.MethodPost:
		var req cloneReq
		if !vs.gate(w, r, &req) {
			return
		}
		v, err := vs.m.Clone(name, req.Name, req.QoSClass)
		if errors.Is(err, volume.ErrExists) {
			if old, _ := vs.m.Lookup(req.Name); old != nil && old.Parent() == name && vs.sameClass(old, req.QoSClass) {
				writeJSON(w, http.StatusOK, volInfo(old))
				return
			}
		}
		if err != nil {
			writeVolumeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, volInfo(v))
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (vs *volumeServer) handleClasses(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.WriteHeader(http.StatusMethodNotAllowed)
		return
	}
	vs.mu.Lock()
	defer vs.mu.Unlock()
	cs := vs.m.Classes()
	type classInfo struct {
		Name     string `json:"name"`
		Weight   int    `json:"weight"`
		Priority int    `json:"priority"`
	}
	out := make([]classInfo, 0, cs.Len())
	for i := 0; i < cs.Len(); i++ {
		sp := cs.Spec(i)
		out = append(out, classInfo{Name: sp.Name, Weight: sp.Weight, Priority: int(sp.Priority)})
	}
	writeJSON(w, http.StatusOK, out)
}
