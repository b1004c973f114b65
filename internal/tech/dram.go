package tech

import "fmt"

// DRAMTech identifies an off-chip memory technology generation. The
// bandwidth points are the ones the paper quotes in §5.2, §5.3 and §6.2.
type DRAMTech int

// Modeled DRAM generations ordered by peak bandwidth.
const (
	GDDR6 DRAMTech = iota
	HBM2
	HBM2E
	HBM3
	HBM3Fast // the H100 SXM HBM3 stack (3.35 TB/s) vs. the generic 2.6 TB/s point
	HBM3E
	HBM4
	HBMX // futuristic node from §6.2 (6.8 TB/s)
)

// DRAMSpec is one generation's headline numbers.
type DRAMSpec struct {
	Tech DRAMTech
	Name string

	// PeakBW is the per-device peak bandwidth in B/s.
	PeakBW float64

	// StackCapacity is the typical per-device capacity in bytes at this
	// generation (used when deriving devices in the DSE; vendor presets
	// override it).
	StackCapacity float64

	// AccessEnergyPJPerBit approximates access energy (pJ/bit), used by the
	// DSE power accounting.
	AccessEnergyPJPerBit float64
}

var dramSpecs = map[DRAMTech]DRAMSpec{
	GDDR6:    {GDDR6, "GDDR6", 600e9, 24e9, 7.0},
	HBM2:     {HBM2, "HBM2", 1.0e12, 32e9, 3.9},
	HBM2E:    {HBM2E, "HBM2e", 1.9e12, 80e9, 3.5},
	HBM3:     {HBM3, "HBM3", 2.6e12, 96e9, 3.0},
	HBM3Fast: {HBM3Fast, "HBM3(SXM)", 3.35e12, 80e9, 3.0},
	HBM3E:    {HBM3E, "HBM3e", 4.8e12, 141e9, 2.7},
	HBM4:     {HBM4, "HBM4", 3.3e12, 192e9, 2.5},
	HBMX:     {HBMX, "HBMX", 6.8e12, 256e9, 2.0},
}

// Spec returns the generation's headline numbers.
func (d DRAMTech) Spec() DRAMSpec { return dramSpecs[d] }

// String returns the conventional generation name, e.g. "HBM2e".
func (d DRAMTech) String() string {
	if s, ok := dramSpecs[d]; ok {
		return s.Name
	}
	return fmt.Sprintf("DRAMTech(%d)", int(d))
}

// ParseDRAM converts a generation name (case-insensitive on the vendor
// spellings used in the paper) into a DRAMTech.
func ParseDRAM(s string) (DRAMTech, error) {
	aliases := map[string]DRAMTech{
		"gddr6": GDDR6, "gdr6": GDDR6,
		"hbm2": HBM2, "hbm2e": HBM2E,
		"hbm3": HBM3, "hbm3-sxm": HBM3Fast, "hbm3fast": HBM3Fast, "hbm3(sxm)": HBM3Fast,
		"hbm3e": HBM3E, "hbm4": HBM4, "hbmx": HBMX,
	}
	if t, ok := aliases[lower(s)]; ok {
		return t, nil
	}
	return HBM2, fmt.Errorf("tech: unknown DRAM technology %q", s)
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
