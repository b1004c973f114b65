package arch

import (
	"encoding/json"
	"fmt"
	"io"

	"optimus/internal/tech"
)

// External system descriptions (paper §3.1: the abstraction layer "can
// also directly receive a high-level system description from external
// inputs, which avoids tedious microarchitecture parameter calibration").
// The JSON shape mirrors the performance drivers exactly, so a vendor
// datasheet transcribes line by line.

// deviceConfig is the JSON wire format for a Device.
type deviceConfig struct {
	Name          string             `json:"name"`
	Compute       map[string]float64 `json:"compute"` // precision name → FLOP/s
	VectorCompute float64            `json:"vectorCompute"`
	Mem           []struct {
		Name     string  `json:"name"`
		Capacity float64 `json:"capacity"`
		BW       float64 `json:"bw"`
		Util     float64 `json:"util"`
	} `json:"mem"`
	DRAM         string  `json:"dram"`
	GEMMEff      float64 `json:"gemmEff"`
	KernelLaunch float64 `json:"kernelLaunch"`
}

// systemConfig is the JSON wire format for a System.
type systemConfig struct {
	Device         deviceConfig `json:"device"`
	DevicesPerNode int          `json:"devicesPerNode"`
	NumNodes       int          `json:"numNodes"`
	Intra          linkConfig   `json:"intra"`
	Inter          linkConfig   `json:"inter"`
}

type linkConfig struct {
	// Tech optionally names a technology-table entry; explicit fields
	// override its values.
	Tech    string  `json:"tech,omitempty"`
	BW      float64 `json:"bw,omitempty"`
	Latency float64 `json:"latency,omitempty"`
	Util    float64 `json:"util,omitempty"`
}

// decodeDevice converts the wire format with defaults and validation.
func decodeDevice(c deviceConfig) (Device, error) {
	d := Device{
		Name:          c.Name,
		Compute:       make(map[tech.Precision]float64, len(c.Compute)),
		VectorCompute: c.VectorCompute,
		GEMMEff:       c.GEMMEff,
		KernelLaunch:  c.KernelLaunch,
	}
	for name, flops := range c.Compute {
		p, err := tech.ParsePrecision(name)
		if err != nil {
			return Device{}, fmt.Errorf("arch: device %s: %w", c.Name, err)
		}
		d.Compute[p] = flops
	}
	for _, m := range c.Mem {
		util := m.Util
		if util == 0 {
			util = 0.80
		}
		d.Mem = append(d.Mem, MemLevel{Name: m.Name, Capacity: m.Capacity, BW: m.BW, Util: util})
	}
	if c.DRAM != "" {
		t, err := tech.ParseDRAM(c.DRAM)
		if err != nil {
			return Device{}, err
		}
		d.DRAM = t
	}
	if d.GEMMEff == 0 {
		d.GEMMEff = 0.70
	}
	if d.KernelLaunch == 0 {
		d.KernelLaunch = 3e-6
	}
	if err := d.Validate(); err != nil {
		return Device{}, err
	}
	return d, nil
}

// decodeLink resolves a link config, starting from the named technology
// entry when present.
func decodeLink(c linkConfig, devicesPerNode int, defaultUtil float64) (Link, error) {
	var l Link
	if c.Tech != "" {
		t, err := tech.ParseNetwork(c.Tech)
		if err != nil {
			return Link{}, err
		}
		l = linkFromTech(t, devicesPerNode, defaultUtil)
		l.Latency = collLatency(t)
	}
	if c.BW > 0 {
		l.BW = c.BW
	}
	if c.Latency > 0 {
		l.Latency = c.Latency
	}
	if c.Util > 0 {
		l.Util = c.Util
	}
	if l.Util == 0 {
		l.Util = defaultUtil
	}
	return l, nil
}

// ReadDevice parses a JSON device description.
func ReadDevice(r io.Reader) (Device, error) {
	var c deviceConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Device{}, fmt.Errorf("arch: device config: %w", err)
	}
	return decodeDevice(c)
}

// ReadSystem parses a JSON system description.
func ReadSystem(r io.Reader) (*System, error) {
	var c systemConfig
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("arch: system config: %w", err)
	}
	dev, err := decodeDevice(c.Device)
	if err != nil {
		return nil, err
	}
	intra, err := decodeLink(c.Intra, 0, 0.80)
	if err != nil {
		return nil, err
	}
	inter, err := decodeLink(c.Inter, c.DevicesPerNode, 0.85)
	if err != nil {
		return nil, err
	}
	s := &System{
		Device:         dev,
		DevicesPerNode: c.DevicesPerNode,
		NumNodes:       c.NumNodes,
		Intra:          intra,
		Inter:          inter,
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteDevice serializes a device back to the JSON wire format, so preset
// devices can be exported, edited and reloaded.
func WriteDevice(w io.Writer, d Device) error {
	c := deviceConfig{
		Name:          d.Name,
		Compute:       make(map[string]float64, len(d.Compute)),
		VectorCompute: d.VectorCompute,
		DRAM:          d.DRAM.String(),
		GEMMEff:       d.GEMMEff,
		KernelLaunch:  d.KernelLaunch,
	}
	for p, f := range d.Compute {
		c.Compute[p.String()] = f
	}
	for _, m := range d.Mem {
		c.Mem = append(c.Mem, struct {
			Name     string  `json:"name"`
			Capacity float64 `json:"capacity"`
			BW       float64 `json:"bw"`
			Util     float64 `json:"util"`
		}{m.Name, m.Capacity, m.BW, m.Util})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
