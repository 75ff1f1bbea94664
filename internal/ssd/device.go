// Package ssd simulates a programmable (open-channel) SSD: channels with
// serial timing, a page-mapped flash translation layer per allocation
// domain, greedy garbage collection, and wear/write-amplification
// accounting. vSSD virtualization composes on top in internal/vssd.
package ssd

import (
	"fmt"

	"rackblox/internal/flash"
	"rackblox/internal/sim"
)

// Device is one physical SSD: a flash array plus per-channel timing.
// Each channel processes one flash command at a time, matching the paper's
// observation that "an SSD channel cannot issue new I/O requests during GC".
type Device struct {
	arr      *flash.Array
	channels []*sim.Resource
}

// NewDevice builds an SSD with the given geometry and timing profile.
func NewDevice(eng *sim.Engine, geo flash.Geometry, prof flash.Profile) (*Device, error) {
	arr, err := flash.NewArray(geo, prof)
	if err != nil {
		return nil, err
	}
	d := &Device{arr: arr}
	d.channels = make([]*sim.Resource, geo.Channels)
	for i := range d.channels {
		d.channels[i] = sim.NewResource(eng)
	}
	return d, nil
}

// Array exposes the flash state (used by the FTL).
func (d *Device) Array() *flash.Array { return d.arr }

// Geometry returns the device geometry.
func (d *Device) Geometry() flash.Geometry { return d.arr.Geo }

// Profile returns the device timing profile.
func (d *Device) Profile() flash.Profile { return d.arr.Profile }

// Channel returns the serial resource of channel i.
func (d *Device) Channel(i int) *sim.Resource { return d.channels[i] }

// TimeRead schedules the timing of a page read on the owning channel,
// returns its window, and fires done (which may be nil) when it
// completes. State is not touched.
func (d *Device) TimeRead(addr flash.Addr, done sim.Handler) (start, end sim.Time) {
	return d.channels[addr.Channel].Reserve(d.arr.Profile.ReadPage, done)
}

// TimeProgram schedules the timing of a page program, like TimeRead.
func (d *Device) TimeProgram(addr flash.Addr, done sim.Handler) (start, end sim.Time) {
	return d.channels[addr.Channel].Reserve(d.arr.Profile.ProgramPage, done)
}

// OccupyChannel reserves channel ch for dur (garbage collection burst) and
// returns the reservation window.
func (d *Device) OccupyChannel(ch int, dur sim.Time) (start, end sim.Time) {
	if ch < 0 || ch >= len(d.channels) {
		panic(fmt.Sprintf("ssd: channel %d out of range", ch))
	}
	return d.channels[ch].Reserve(dur, nil)
}

// ChipRef names one chip inside a device.
type ChipRef struct {
	Channel int
	Chip    int
}

// ChannelChips returns the chips of one channel.
func (d *Device) ChannelChips(ch int) []ChipRef {
	refs := make([]ChipRef, d.arr.Geo.ChipsPerChannel)
	for i := range refs {
		refs[i] = ChipRef{Channel: ch, Chip: i}
	}
	return refs
}

// AllChips returns every chip of the device.
func (d *Device) AllChips() []ChipRef {
	var refs []ChipRef
	for ch := 0; ch < d.arr.Geo.Channels; ch++ {
		refs = append(refs, d.ChannelChips(ch)...)
	}
	return refs
}
