package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobiledl/internal/compress"
	"mobiledl/internal/nn"
)

// Factory builds a fresh, architecture-complete (but untrained) instance of
// a backend. Architectures are code, not data: the registry stores
// factories and moves only weights, so a weight blob from a mismatched
// architecture fails loudly at load time.
type Factory func() (Backend, error)

// VersionHistory is how many versions (including the current one) each
// registry entry retains, so requests pinned to a recent version keep
// resolving across hot swaps. A Store keeps the same publish history across
// compactions, so every pinnable version also survives a restart.
const VersionHistory = 4

// VersionMeta is optional training provenance attached to an installed
// version — which producer published it, after which training round, at what
// held-out accuracy. The fedserve coordinator stamps every version it
// publishes so /v1/models shows accuracy moving across hot swaps.
type VersionMeta struct {
	// Source names the producer (e.g. "fedserve").
	Source string `json:"source,omitempty"`
	// Round is the training round that produced these weights.
	Round int `json:"round"`
	// Accuracy is the held-out accuracy the version was accepted at.
	Accuracy float64 `json:"accuracy"`
}

// Loaded is one immutable installed version of a model. Executors grab a
// *Loaded per batch; hot swaps install a new one without disturbing batches
// already running against the old.
type Loaded struct {
	Name    string
	Version int
	Backend Backend
	// Info caches Backend.Describe so the per-batch hot path never calls
	// into the backend for metadata.
	Info BackendInfo
	// Sizes is set when the model went through the compression pipeline.
	Sizes *compress.StageSizes
	// Meta is the training provenance, when the installer supplied one.
	Meta     *VersionMeta
	LoadedAt time.Time
}

// ModelInfo is the registry listing entry for the /v1/models endpoint.
type ModelInfo struct {
	Name       string    `json:"name"`
	Version    int       `json:"version"`
	Kind       string    `json:"kind"` // "dense", "cascade", or "baseline"
	Algorithm  string    `json:"algorithm,omitempty"`
	Params     int       `json:"params"`
	Compressed bool      `json:"compressed"`
	Ratio      float64   `json:"compression_ratio,omitempty"`
	LoadedAt   time.Time `json:"loaded_at"`
	// Train carries the version's training provenance (round, held-out
	// accuracy, producer) for versions published by a training pipeline.
	Train *VersionMeta `json:"train,omitempty"`
}

type regEntry struct {
	factory Factory
	writeMu sync.Mutex // serializes installs; version is guarded by it
	version int
	cur     atomic.Pointer[Loaded]

	histMu  sync.RWMutex
	history map[int]*Loaded // last VersionHistory versions, incl. current
}

// Registry names, versions, and hot-swaps serving backends. Register/Load/
// Install take a write path guarded per entry; Get is a lock-free atomic
// load so the serving hot path never contends with swaps. A bounded history
// of past versions stays resolvable for version-pinned requests.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry

	// store, when set, durably records every Param-bearing publish. Append
	// failures degrade (RAM-only publishes, StoreStatus "degraded") instead
	// of failing the install — persistence is never allowed to take serving
	// down with it.
	store         Store
	storeErrs     atomic.Uint64
	storeDegraded atomic.Bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry)}
}

// SetStore attaches the persistence store. Call it before installs begin;
// subsequent Param-bearing publishes are appended to the store, and
// RecoverFrom replays it at boot. A nil store turns persistence off
// (StoreStatus "disabled").
func (r *Registry) SetStore(st Store) {
	r.mu.Lock()
	r.store = st
	r.mu.Unlock()
}

// Store returns the attached persistence store (nil when persistence is
// off) — the handle the HTTP layer streams /v1/backup from.
func (r *Registry) Store() Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store
}

// StoreStatus reports the persistence health surfaced on /healthz:
// "disabled" (no store), "ok", or "degraded" (the last append failed;
// serving continues from RAM).
func (r *Registry) StoreStatus() string {
	if r.Store() == nil {
		return StoreDisabled
	}
	if r.storeDegraded.Load() {
		return StoreDegraded
	}
	return StoreOK
}

// StoreErrors counts failed store appends over the registry's lifetime (the
// mobiledl_store_errors_total counter).
func (r *Registry) StoreErrors() uint64 { return r.storeErrs.Load() }

// persist appends a publish record for an installed version. Failures
// degrade rather than propagate: the version stays installed in RAM, the
// error is counted, and the degraded flag flips until an append succeeds
// again. Install-only backends without parameters (nothing to re-materialize
// from) are skipped.
func (r *Registry) persist(l *Loaded) {
	st := r.Store()
	if st == nil || len(l.Backend.Params()) == 0 {
		return
	}
	blob, err := nn.EncodeWeights(l.Backend)
	if err == nil {
		err = st.AppendPublish(PublishRecord{
			Model: l.Name, Version: l.Version, Kind: l.Info.Kind,
			Meta: l.Meta, Weights: blob, At: l.LoadedAt,
		})
	}
	if err != nil {
		r.storeErrs.Add(1)
		if !r.storeDegraded.Swap(true) {
			slog.Warn("model store degraded: publishes continue in RAM",
				"model", l.Name, "version", l.Version, "err", err)
		}
		return
	}
	if r.storeDegraded.Swap(false) {
		slog.Info("model store recovered", "model", l.Name, "version", l.Version)
	}
}

// RecoverFrom replays a store's publish records into the registry — the boot
// path that makes a restart a non-event. Records are installed in (model,
// ascending version) order, so each entry ends current at its last durably
// published version with the version counter continuing past it. Only models
// with a registered factory recover (architectures are code); records for
// unregistered or Install-only names are skipped and counted. A record whose
// weights no longer fit the factory's architecture aborts with an error
// rather than serving a mismatched model.
func (r *Registry) RecoverFrom(st Store) (restored, skipped int, err error) {
	for _, rec := range st.Publishes() {
		r.mu.RLock()
		e, ok := r.entries[rec.Model]
		r.mu.RUnlock()
		if !ok || e.factory == nil {
			skipped++
			continue
		}
		b, berr := r.build(e)
		if berr != nil {
			return restored, skipped, fmt.Errorf("recover %q v%d: %w", rec.Model, rec.Version, berr)
		}
		if len(b.Params()) == 0 {
			skipped++
			continue
		}
		if lerr := nn.DecodeWeights(b, rec.Weights); lerr != nil {
			if errors.Is(lerr, nn.ErrWeightsFormat) {
				lerr = fmt.Errorf("weights blob predates format v1 (data dir written by an older build): %w", lerr)
			}
			return restored, skipped, fmt.Errorf("recover %q v%d: %w", rec.Model, rec.Version, lerr)
		}
		if ierr := r.installRecovered(e, rec, b); ierr != nil {
			return restored, skipped, ierr
		}
		restored++
	}
	return restored, skipped, nil
}

// installRecovered re-installs one replayed version under its recorded
// version number (no store append — the record is already durable). The
// entry's version counter advances to at least the recovered version so
// post-recovery installs keep numbering monotonically; an already-installed
// newer version stays current, and the stale record lands in history.
func (r *Registry) installRecovered(e *regEntry, rec PublishRecord, b Backend) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	l := &Loaded{
		Name: rec.Model, Version: rec.Version, Backend: b, Info: b.Describe(),
		Meta: rec.Meta, LoadedAt: rec.At,
	}
	if err := e.place(l); err != nil {
		return err
	}
	e.version = max(e.version, rec.Version)
	return nil
}

// Register declares a model name and its architecture factory. Registering
// an existing name is an error (architectures are fixed per name; new
// weights arrive via Load).
func (r *Registry) Register(name string, factory Factory) error {
	if name == "" || factory == nil {
		return fmt.Errorf("%w: register needs a name and factory", ErrServe)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("%w: model %q already registered", ErrServe, name)
	}
	r.entries[name] = &regEntry{factory: factory, history: make(map[int]*Loaded)}
	return nil
}

func (r *Registry) entry(name string) (*regEntry, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: model %q not registered", ErrServe, name)
	}
	return e, nil
}

// Load builds a fresh backend from the factory, decodes an nn.EncodeWeights
// blob into its parameters, and atomically installs it as the new current
// version. Only Param-bearing backends (dense, cascade) load; in-flight
// batches keep the version they started with.
func (r *Registry) Load(name string, weights []byte) (int, error) {
	e, b, err := r.buildLoaded(name, weights)
	if err != nil {
		return 0, err
	}
	return r.install(e, name, b, nil, nil)
}

// LoadCompressed loads weights like Load, then pushes the model through the
// Deep Compression pipeline and installs the reconstructed (pruned +
// quantized) network, recording the stage sizes. Only dense backends
// compress; cascades keep their privacy-calibrated halves intact and
// baselines have nothing to quantize.
func (r *Registry) LoadCompressed(name string, weights []byte, cfg compress.PipelineConfig) (int, error) {
	e, b, err := r.buildLoaded(name, weights)
	if err != nil {
		return 0, err
	}
	db, ok := b.(*DenseBackend)
	if !ok {
		return 0, fmt.Errorf("%w: model %q is a %s backend; compression serves dense models only",
			ErrServe, name, b.Describe().Kind)
	}
	res, err := compress.RunPipeline(db.Net(), cfg)
	if err != nil {
		return 0, fmt.Errorf("serve: compress %q: %w", name, err)
	}
	nb, err := NewDenseBackend(res.Model)
	if err != nil {
		return 0, err
	}
	return r.install(e, name, nb, &res.Sizes, nil)
}

// buildLoaded builds a fresh backend from name's factory and decodes weights
// into its parameters, the shared front half of Load and LoadCompressed.
func (r *Registry) buildLoaded(name string, weights []byte) (*regEntry, Backend, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, nil, err
	}
	b, err := r.build(e)
	if err != nil {
		return nil, nil, err
	}
	if len(b.Params()) == 0 {
		return nil, nil, fmt.Errorf("%w: backend %q has no parameters; weight hot swap needs a Param-bearing backend", ErrServe, name)
	}
	if err := nn.DecodeWeights(b, weights); err != nil {
		return nil, nil, fmt.Errorf("serve: load %q: %w", name, err)
	}
	return e, b, nil
}

// Install registers name on first use (with no factory) and installs an
// already-built backend directly — the path for models trained in-process,
// and the only path for baseline backends. Subsequent Installs under the
// same name hot-swap and bump the version.
func (r *Registry) Install(name string, b Backend) (int, error) {
	return r.InstallWithMeta(name, b, nil)
}

// InstallWithMeta is Install carrying training provenance: the published
// version records meta and surfaces it in Snapshot (the /v1/models listing),
// so clients can see which round and held-out accuracy each hot-swapped
// version came from. This is the publication path of the fedserve
// coordinator.
func (r *Registry) InstallWithMeta(name string, b Backend, meta *VersionMeta) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("%w: install needs a name", ErrServe)
	}
	if b == nil {
		return 0, fmt.Errorf("%w: install needs a backend", ErrServe)
	}
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		e = &regEntry{history: make(map[int]*Loaded)}
		r.entries[name] = e
	}
	r.mu.Unlock()
	return r.install(e, name, b, nil, meta)
}

// Get returns the current version of a model; lock-free after the map read.
func (r *Registry) Get(name string) (*Loaded, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	l := e.cur.Load()
	if l == nil {
		return nil, fmt.Errorf("%w: model %q registered but no weights loaded", ErrServe, name)
	}
	return l, nil
}

// GetVersion resolves a version-pinned lookup: version 0 means current
// (lock-free), any other version must still be in the entry's bounded
// history. An unknown pin is a client error (ErrRequest).
func (r *Registry) GetVersion(name string, version int) (*Loaded, error) {
	if version == 0 {
		return r.Get(name)
	}
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	e.histMu.RLock()
	l := e.history[version]
	e.histMu.RUnlock()
	if l == nil {
		return nil, fmt.Errorf("%w: model %q has no version %d (the registry retains the last %d)",
			ErrRequest, name, version, VersionHistory)
	}
	return l, nil
}

// Snapshot lists all models with a loaded version, sorted by name.
func (r *Registry) Snapshot() []ModelInfo {
	r.mu.RLock()
	loaded := make([]*Loaded, 0, len(r.entries))
	for _, e := range r.entries {
		if l := e.cur.Load(); l != nil {
			loaded = append(loaded, l)
		}
	}
	r.mu.RUnlock()
	infos := make([]ModelInfo, 0, len(loaded))
	for _, l := range loaded {
		info := ModelInfo{
			Name: l.Name, Version: l.Version, Kind: l.Info.Kind,
			Algorithm: l.Info.Algorithm, Params: l.Info.NumParams,
			LoadedAt: l.LoadedAt, Train: l.Meta,
		}
		if l.Sizes != nil {
			info.Compressed = true
			info.Ratio = l.Sizes.Ratio()
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Inventory lists the models with a loaded current version and that
// version's number — the cheap snapshot the cluster layer gossips to peers
// (Snapshot carries provenance and sizes this path never needs).
func (r *Registry) Inventory() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	inv := make(map[string]int, len(r.entries))
	for name, e := range r.entries {
		if l := e.cur.Load(); l != nil {
			inv[name] = l.Version
		}
	}
	return inv
}

// Checkpoint serializes the current weights of a model, the blob Load
// accepts — Checkpoint-then-Load round-trips a hot swap.
func (r *Registry) Checkpoint(name string) ([]byte, error) {
	l, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	if len(l.Backend.Params()) == 0 {
		return nil, fmt.Errorf("%w: backend %q has no parameters to checkpoint", ErrServe, name)
	}
	return nn.EncodeWeights(l.Backend)
}

// Close closes every backend the registry still retains (current and
// historical versions). The registry must not serve afterwards.
func (r *Registry) Close() error {
	r.mu.RLock()
	entries := make([]*regEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	var firstErr error
	for _, e := range entries {
		e.histMu.RLock()
		versions := make([]*Loaded, 0, len(e.history))
		for _, l := range e.history {
			versions = append(versions, l)
		}
		e.histMu.RUnlock()
		for _, l := range versions {
			if err := l.Backend.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func (r *Registry) build(e *regEntry) (Backend, error) {
	if e.factory == nil {
		return nil, fmt.Errorf("%w: model has no architecture factory (Install-only)", ErrServe)
	}
	b, err := e.factory()
	if err != nil {
		return nil, fmt.Errorf("serve: factory: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("%w: factory returned no backend", ErrServe)
	}
	return b, nil
}

// install atomically publishes a new version and persists it.
func (r *Registry) install(e *regEntry, name string, b Backend, sizes *compress.StageSizes, meta *VersionMeta) (int, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	l := &Loaded{
		Name: name, Version: e.version + 1, Backend: b, Info: b.Describe(),
		Sizes: sizes, Meta: meta, LoadedAt: time.Now(),
	}
	if err := e.place(l); err != nil {
		return 0, err
	}
	e.version = l.Version
	// Persist after the in-RAM swap, still under writeMu so the store sees
	// each model's versions in order. A store failure degrades (counted,
	// surfaced on /healthz) but never unwinds the install: serving hot swaps
	// must keep working when the disk does not.
	r.persist(l)
	return l.Version, nil
}

// place records l in the entry's bounded history and makes it current
// unless a newer version already is; the caller holds writeMu. It refuses
// versions that change the served interface (input width or class count):
// the batcher's feature dim is fixed at runtime construction, so such a
// swap would fail every subsequent request instead of failing the swap.
func (e *regEntry) place(l *Loaded) error {
	if l.Info.InputDim <= 0 || l.Info.Classes <= 0 {
		return fmt.Errorf("%w: backend for %q v%d describes %d inputs, %d classes",
			ErrServe, l.Name, l.Version, l.Info.InputDim, l.Info.Classes)
	}
	cur := e.cur.Load()
	if cur != nil && (cur.Info.InputDim != l.Info.InputDim || cur.Info.Classes != l.Info.Classes) {
		return fmt.Errorf("%w: %q v%d changes interface %d->%d inputs, %d->%d classes",
			ErrServe, l.Name, l.Version, cur.Info.InputDim, l.Info.InputDim, cur.Info.Classes, l.Info.Classes)
	}
	e.histMu.Lock()
	e.history[l.Version] = l
	// Eviction drops the reference without calling Backend.Close: the
	// evicted version may still be serving an in-flight batch. Backends
	// holding real resources are released by Registry.Close at shutdown
	// (Server.Close calls it).
	delete(e.history, l.Version-VersionHistory)
	e.histMu.Unlock()
	if cur == nil || l.Version > cur.Version {
		e.cur.Store(l)
	}
	return nil
}
