// Package checkpoint is the durable-state layer of the air-serving stack: a
// versioned, CRC-checksummed, pure-stdlib binary format for trained models,
// solved deployments, monitor thresholds, and full serving epochs, plus the
// atomic file plumbing and the WAL-style epoch journal metaai-serve recovers
// from after a crash.
//
// Two properties anchor the design:
//
//   - Bit identity. Floats are serialized as IEEE-754 bit patterns and a
//     restored deployment recomputes its derived statistics with the same
//     arithmetic the original used (ota.FromState), so the accumulators of a
//     recovered epoch are byte-identical to the pre-crash epoch's — no
//     re-training, no re-solving, no drift.
//   - Fail loudly, never serve garbage. Every file is sealed under a CRC
//     covering header and payload; decoding validates structure and
//     semantics (ota.DeploymentState.Validate) before anything reaches the
//     serving path, and every failure maps onto a typed error so recovery
//     can distinguish "corrupt, fall back an epoch" from "wrong format,
//     refuse to start".
package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/channel"
	"repro/internal/cplx"
	"repro/internal/mts"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/ota"
)

// Typed decode errors. Callers branch with errors.Is; the journal treats all
// of them as "skip this entry and fall back".
var (
	// ErrTruncated marks a file shorter than its structure claims.
	ErrTruncated = errors.New("checkpoint: truncated")
	// ErrBadMagic marks a file that was never a checkpoint.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrCorrupt marks a CRC mismatch — the bytes changed after sealing.
	ErrCorrupt = errors.New("checkpoint: checksum mismatch")
	// ErrVersion marks a format version this build does not read.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrKind marks a structurally valid checkpoint of the wrong kind.
	ErrKind = errors.New("checkpoint: unexpected kind")
	// ErrInvalid marks a checkpoint whose payload fails semantic validation.
	ErrInvalid = errors.New("checkpoint: invalid payload")
)

// Checkpoint I/O metrics: files sealed and written, files loaded, and decode
// failures (any typed error above counts — the journal also bumps this for
// every entry it skips during recovery).
var (
	ckptWrites  = obs.NewCounter("checkpoint.write")
	ckptLoads   = obs.NewCounter("checkpoint.load")
	ckptCorrupt = obs.NewCounter("checkpoint.corrupt")
)

// EncodeModel seals a trained network: dimensions plus the complex weight
// matrix, bit for bit.
func EncodeModel(m *nn.ComplexLNN) []byte {
	var w writer
	w.u32(uint32(m.Classes))
	w.u32(uint32(m.U))
	w.c128s(m.W.Val)
	return seal(KindModel, w.buf)
}

// DecodeModel rebuilds a network from a sealed model checkpoint.
func DecodeModel(b []byte) (*nn.ComplexLNN, error) {
	payload, _, err := open(KindModel, b)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	classes := int(r.u32())
	u := int(r.u32())
	weights := r.c128s()
	if err := r.done(); err != nil {
		return nil, err
	}
	if classes <= 0 || u <= 0 || classes > 1<<16 || u > 1<<20 {
		return nil, fmt.Errorf("%w: model dimensions %dx%d", ErrInvalid, classes, u)
	}
	if len(weights) != classes*u {
		return nil, fmt.Errorf("%w: %d weights for a %dx%d model", ErrInvalid, len(weights), classes, u)
	}
	m := nn.NewComplexLNN(classes, u)
	copy(m.W.Val, weights)
	return m, nil
}

// stateVersion returns the envelope version a DeploymentState needs:
// versionCascade iff it carries cascade layers, so single-surface
// checkpoints stay byte-identical to version-1 builds.
func stateVersion(st *ota.DeploymentState) uint16 {
	if len(st.Layers) > 0 {
		return versionCascade
	}
	return version
}

// encodeState appends a DeploymentState to w at format version v — shared
// by the deployment and epoch kinds. Version 1 writes exactly the
// pre-cascade field sequence; version 2 appends the cascade block.
func encodeState(w *writer, st *ota.DeploymentState, v uint16) {
	w.u32(uint32(st.Surface.Rows))
	w.u32(uint32(st.Surface.Cols))
	w.u32(uint32(st.Surface.Bits))
	w.f64(st.Surface.FreqGHz)
	w.f64(st.Surface.SpacingM)
	w.f64(st.Surface.FabPhaseStd)
	w.f64s(st.Surface.Fab)

	w.f64(st.Geometry.TxDistM)
	w.f64(st.Geometry.TxAngleDeg)
	w.f64(st.Geometry.RxDistM)
	w.f64(st.Geometry.RxAngleDeg)

	w.u32(uint32(st.Controller.Groups))
	w.u32(uint32(st.Controller.BitsPerAtom))
	w.f64(st.Controller.ClockHz)
	w.f64(st.Controller.SwitchEnergyJ)

	w.u32(uint32(st.Channel.Env))
	w.u32(uint32(st.Channel.Antenna))
	w.f64(st.Channel.FreqGHz)
	w.f64(st.Channel.TxMTSDist)
	w.f64(st.Channel.MTSRxDist)
	w.f64(st.Channel.TxPowerDB)
	w.u32(uint32(st.Channel.Walls))
	w.u32(uint32(st.Channel.Interf))
	w.f64(st.Channel.DopplerHz)
	w.f64(st.Channel.SymbolRateHz)

	w.u32(uint32(st.SubSamples))
	w.f64(st.TargetScale)
	w.f64(st.BeamScanStepDeg)
	w.f64(st.JitterStd)
	w.f64(st.SymbolRateHz)
	w.bool(st.ExactJitter)
	w.bool(st.CompensateEnv)

	// Schedule: dense classes×U×atoms state bytes — dimensions are implied
	// by the surface grid and realized matrix, so only the raw states ship.
	w.u32(uint32(len(st.Schedule)))
	var cols int
	if len(st.Schedule) > 0 {
		cols = len(st.Schedule[0])
	}
	w.u32(uint32(cols))
	for _, row := range st.Schedule {
		for _, cfg := range row {
			w.u32(uint32(len(cfg)))
			w.buf = append(w.buf, cfg...)
		}
	}
	w.c128s(st.Realized.Data)

	w.f64(st.Gamma)
	w.f64(st.EstRxAngleDeg)
	w.c128(st.EnvBase)
	w.c128(st.CalMTSPhase)
	w.f64(st.EnvScale)

	if v >= versionCascade {
		w.u32(uint32(len(st.Layers)))
		for _, layer := range st.Layers {
			w.u32(uint32(layer.Surface.Rows))
			w.u32(uint32(layer.Surface.Cols))
			w.u32(uint32(layer.Surface.Bits))
			w.f64(layer.Surface.FreqGHz)
			w.f64(layer.Surface.SpacingM)
			w.f64(layer.Surface.FabPhaseStd)
			w.f64s(layer.Surface.Fab)
			w.f64(layer.Geometry.TxDistM)
			w.f64(layer.Geometry.TxAngleDeg)
			w.f64(layer.Geometry.RxDistM)
			w.f64(layer.Geometry.RxAngleDeg)
		}
		w.u32(uint32(len(st.LayerSchedules)))
		for _, sched := range st.LayerSchedules {
			w.u32(uint32(len(sched)))
			var cols int
			if len(sched) > 0 {
				cols = len(sched[0])
			}
			w.u32(uint32(cols))
			for _, row := range sched {
				for _, cfg := range row {
					w.u32(uint32(len(cfg)))
					w.buf = append(w.buf, cfg...)
				}
			}
		}
		w.f64s(st.LayerPower)
		w.f64(st.HopNoise)
	}
}

// decodeSchedule reads one rows×cols configuration matrix with the
// allocation guards (shared by the primary and per-layer schedules).
func decodeSchedule(r *reader) [][]mts.Config {
	rows := r.count(0)
	cols := int(r.u32())
	if r.err == nil {
		if rows < 0 || cols < 0 || cols > 1<<20 || (cols > 0 && rows > (len(r.b)-r.off)/cols) {
			r.fail("%w: schedule claims %dx%d configurations in %d remaining bytes", ErrTruncated, rows, cols, len(r.b)-r.off)
		}
	}
	if r.err != nil || rows == 0 {
		return nil
	}
	out := make([][]mts.Config, rows)
	for i := range out {
		row := make([]mts.Config, cols)
		for j := range row {
			// Copy out of the payload buffer: a decoded state must own its
			// storage.
			row[j] = mts.Config(append([]uint8(nil), r.take(r.count(1))...))
		}
		out[i] = row
	}
	return out
}

// decodeState reads a DeploymentState sealed at format version v and
// validates it.
func decodeState(r *reader, v uint16) (*ota.DeploymentState, error) {
	st := &ota.DeploymentState{}
	st.Surface.Rows = int(r.u32())
	st.Surface.Cols = int(r.u32())
	st.Surface.Bits = int(r.u32())
	st.Surface.FreqGHz = r.f64()
	st.Surface.SpacingM = r.f64()
	st.Surface.FabPhaseStd = r.f64()
	st.Surface.Fab = r.f64s()

	st.Geometry.TxDistM = r.f64()
	st.Geometry.TxAngleDeg = r.f64()
	st.Geometry.RxDistM = r.f64()
	st.Geometry.RxAngleDeg = r.f64()

	st.Controller.Groups = int(r.u32())
	st.Controller.BitsPerAtom = int(r.u32())
	st.Controller.ClockHz = r.f64()
	st.Controller.SwitchEnergyJ = r.f64()

	st.Channel.Env = channel.Environment(r.u32())
	st.Channel.Antenna = channel.Antenna(r.u32())
	st.Channel.FreqGHz = r.f64()
	st.Channel.TxMTSDist = r.f64()
	st.Channel.MTSRxDist = r.f64()
	st.Channel.TxPowerDB = r.f64()
	st.Channel.Walls = int(r.u32())
	st.Channel.Interf = channel.InterferenceRegion(r.u32())
	st.Channel.DopplerHz = r.f64()
	st.Channel.SymbolRateHz = r.f64()

	st.SubSamples = int(r.u32())
	st.TargetScale = r.f64()
	st.BeamScanStepDeg = r.f64()
	st.JitterStd = r.f64()
	st.SymbolRateHz = r.f64()
	st.ExactJitter = r.bool()
	st.CompensateEnv = r.bool()

	st.Schedule = decodeSchedule(r)
	realized := r.c128s()

	st.Gamma = r.f64()
	st.EstRxAngleDeg = r.f64()
	st.EnvBase = r.c128()
	st.CalMTSPhase = r.c128()
	st.EnvScale = r.f64()

	if v >= versionCascade {
		nLayers := r.count(1)
		if r.err == nil && nLayers > 0 {
			st.Layers = make([]ota.CascadeLayerState, nLayers)
			for k := range st.Layers {
				l := &st.Layers[k]
				l.Surface.Rows = int(r.u32())
				l.Surface.Cols = int(r.u32())
				l.Surface.Bits = int(r.u32())
				l.Surface.FreqGHz = r.f64()
				l.Surface.SpacingM = r.f64()
				l.Surface.FabPhaseStd = r.f64()
				l.Surface.Fab = r.f64s()
				l.Geometry.TxDistM = r.f64()
				l.Geometry.TxAngleDeg = r.f64()
				l.Geometry.RxDistM = r.f64()
				l.Geometry.RxAngleDeg = r.f64()
			}
		}
		nScheds := r.count(1)
		if r.err == nil && nScheds > 0 {
			st.LayerSchedules = make([][][]mts.Config, nScheds)
			for k := range st.LayerSchedules {
				st.LayerSchedules[k] = decodeSchedule(r)
			}
		}
		st.LayerPower = r.f64s()
		st.HopNoise = r.f64()
	}
	if r.err != nil {
		return nil, r.err
	}
	rows, cols := len(st.Schedule), 0
	if rows > 0 {
		cols = len(st.Schedule[0])
	}
	if rows > 0 && cols > 0 {
		if len(realized) != rows*cols {
			return nil, fmt.Errorf("%w: %d realized responses for a %dx%d schedule", ErrInvalid, len(realized), rows, cols)
		}
		st.Realized = &cplx.Mat{Rows: rows, Cols: cols, Data: realized}
	}
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return st, nil
}

// EncodeDeployment seals a deployment snapshot — version 1 for a
// single-surface deployment (byte-identical to pre-cascade builds),
// version 2 when cascade layers are present.
func EncodeDeployment(st *ota.DeploymentState) []byte {
	v := stateVersion(st)
	var w writer
	encodeState(&w, st, v)
	return sealV(KindDeployment, v, w.buf)
}

// DecodeDeployment rebuilds and validates a deployment snapshot (either
// format version).
func DecodeDeployment(b []byte) (*ota.DeploymentState, error) {
	payload, v, err := open(KindDeployment, b)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	st, err := decodeState(r, v)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return st, nil
}

// Thresholds parameterizes a mobility.Monitor: the degradation threshold and
// the trailing-window length.
type Thresholds struct {
	Threshold float64
	Window    int
}

func encodeThresholds(w *writer, th Thresholds) {
	w.f64(th.Threshold)
	w.u32(uint32(th.Window))
}

func decodeThresholds(r *reader) (Thresholds, error) {
	th := Thresholds{Threshold: r.f64(), Window: int(r.u32())}
	if r.err != nil {
		return Thresholds{}, r.err
	}
	if th.Window < 0 || th.Window > 1<<24 {
		return Thresholds{}, fmt.Errorf("%w: monitor window %d", ErrInvalid, th.Window)
	}
	return th, nil
}

// Meta carries the serving context a recovered epoch needs but a
// DeploymentState cannot express: which dataset the deployment serves, the
// seed lineage, the clock-sync detector the SyncSampler must be rebuilt
// from (functions don't serialize), and the fault rate the injector was
// armed with.
type Meta struct {
	Dataset   string
	Seed      uint64
	DetShape  float64
	DetScale  float64
	FaultRate float64
}

// Epoch is one published serving state: the WAL journal's append unit.
type Epoch struct {
	// Seq is the journal sequence number; Append assigns it.
	Seq uint64
	// Reason records why this epoch was published: "deploy", "heal",
	// "rollback", "recover".
	Reason string
	Meta   Meta
	State  *ota.DeploymentState
	Th     Thresholds
}

// EncodeEpoch seals a full serving epoch — version 2 iff its deployment
// state carries cascade layers, exactly as EncodeDeployment.
func EncodeEpoch(e *Epoch) []byte {
	v := stateVersion(e.State)
	var w writer
	w.u64(e.Seq)
	w.str(e.Reason)
	w.str(e.Meta.Dataset)
	w.u64(e.Meta.Seed)
	w.f64(e.Meta.DetShape)
	w.f64(e.Meta.DetScale)
	w.f64(e.Meta.FaultRate)
	encodeThresholds(&w, e.Th)
	encodeState(&w, e.State, v)
	return sealV(KindEpoch, v, w.buf)
}

// DecodeEpoch rebuilds and validates a serving epoch (either format
// version).
func DecodeEpoch(b []byte) (*Epoch, error) {
	payload, v, err := open(KindEpoch, b)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	e := &Epoch{Seq: r.u64(), Reason: r.str()}
	e.Meta.Dataset = r.str()
	e.Meta.Seed = r.u64()
	e.Meta.DetShape = r.f64()
	e.Meta.DetScale = r.f64()
	e.Meta.FaultRate = r.f64()
	e.Th, err = decodeThresholds(r)
	if err != nil {
		return nil, err
	}
	e.State, err = decodeState(r, v)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return e, nil
}

// Decode dispatches on the sealed kind and returns the decoded value —
// *nn.ComplexLNN, *ota.DeploymentState, *Epoch, or *FleetState. It is the
// fuzz entry point: any input must either decode cleanly or fail with a
// typed error, never panic.
func Decode(b []byte) (any, error) {
	kind, err := PeekKind(b)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindModel:
		return DecodeModel(b)
	case KindDeployment:
		return DecodeDeployment(b)
	case KindEpoch:
		return DecodeEpoch(b)
	case KindFleet:
		return DecodeFleetState(b)
	}
	return nil, fmt.Errorf("%w: %v", ErrKind, kind)
}

// WriteFile persists a sealed checkpoint atomically: write to a temp file in
// the destination directory, fsync, rename over the target, fsync the
// directory. A crash at any instant leaves either the old file or the new
// one — never a torn hybrid. (The CRC would catch a torn write anyway; the
// rename discipline means it never has to.)
func WriteFile(path string, sealed []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(sealed); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	ckptWrites.Inc()
	return nil
}

// ReadFile loads a sealed checkpoint. Decode failures are the caller's to
// classify; ReadFile only surfaces I/O errors.
func ReadFile(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ckptLoads.Inc()
	return b, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
