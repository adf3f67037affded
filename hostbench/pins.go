package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"msglayer/internal/flitnet"
)

// statsDigest hashes every counter of a point's flitnet.Stats (FNV-1a 64).
// Simulated counts depend only on the inputs, so at a fixed seed the digest
// is the same on any host; a change to it is a change to the simulation.
func statsDigest(st flitnet.Stats) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{
		st.Injected, st.Delivered, st.Dropped, st.CorruptSeen, st.Backpressure, st.Rejected, st.HWRetries,
		st.Kills, st.Retries, st.Cycles, st.FlitMoves, st.PadFlits, st.FailedWorms,
		st.LatencySum, st.LatencyMax, st.LatencyCount,
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Digests at the default seed, by point label. Most SLO reports share one
// digest: the canonical delivery-floor rule fires on every flit run,
// because flit runs export no delivered-packet series, so
// monitor.incidents is a pinned count, not a failure.
var (
	meshStatsPins = map[string]string{
		"deterministic/vc1/load=50":  "55976bf3a9f421b0",
		"adaptive/vc2/load=50":       "bfb8ed91144623fa",
		"cr/vc1/load=50":             "4fb044e6138fdd0d",
		"deterministic/vc1/load=200": "510f8cd5e7a53615",
		"adaptive/vc2/load=200":      "7151800d5aff01de",
		"cr/vc1/load=200":            "84c9f5d731b67801",
	}
	observedStatsPins = map[string]string{
		"deterministic/vc1/load=20":  "84eea780a99ac15d",
		"adaptive/vc1/load=20":       "6f571b96a82d9cd0",
		"cr/vc1/load=20":             "ed168915c471c7be",
		"deterministic/vc1/load=50":  "aaa867063cd5b216",
		"adaptive/vc1/load=50":       "1449cfa741ab12b0",
		"cr/vc1/load=50":             "e8bcb308b2f75e08",
		"deterministic/vc1/load=100": "f976d115a435a6ed",
		"adaptive/vc1/load=100":      "dcd2aa84e19b61a3",
		"cr/vc1/load=100":            "05fc669b7586089a",
		"deterministic/vc1/load=200": "d2314dc0bd3e870f",
		"adaptive/vc1/load=200":      "0b041b4a55200ba4",
		"cr/vc1/load=200":            "02ee8f42e24cfd96",
		"deterministic/vc1/load=300": "a6efaec80654f2aa",
		"adaptive/vc1/load=300":      "0907af159fe7cce1",
		"cr/vc1/load=300":            "cd74ddc7074554ef",
	}
	observedMonitorPins = map[string]string{
		"deterministic/vc1/load=20":  "ce50ed811862873e",
		"adaptive/vc1/load=20":       "ce50ed811862873e",
		"cr/vc1/load=20":             "ce50ed811862873e",
		"deterministic/vc1/load=50":  "ce50ed811862873e",
		"adaptive/vc1/load=50":       "ce50ed811862873e",
		"cr/vc1/load=50":             "ce50ed811862873e",
		"deterministic/vc1/load=100": "ce50ed811862873e",
		"adaptive/vc1/load=100":      "ce50ed811862873e",
		"cr/vc1/load=100":            "ce50ed811862873e",
		"deterministic/vc1/load=200": "3761381d346f75e0",
		"adaptive/vc1/load=200":      "ce50ed811862873e",
		"cr/vc1/load=200":            "ce50ed811862873e",
		"deterministic/vc1/load=300": "31454428adff1d3d",
		"adaptive/vc1/load=300":      "ce50ed811862873e",
		"cr/vc1/load=300":            "ce50ed811862873e",
	}
)
