//! Structural netlist representation and the MAC design generator.
//!
//! The paper's benchmarks are multiply-accumulate (MAC) designs at two
//! sizes (~20k and ~67k placed cells). This module generates structurally
//! real MAC netlists — Booth-style partial products, a 3:2 compressor
//! reduction array, carry-lookahead final adders, accumulators, and a
//! cross-lane reduction tree — so that the features the flow model consumes
//! (cell count, combinational depth, pin capacitance, fanout profile) come
//! from an actual gate-level structure rather than hand-picked constants.

use serde::{Deserialize, Serialize};

use crate::library::{CellKind, CellLibrary, Drive};

/// Identifier of a net (an index into the netlist's net tables).
pub type NetId = usize;

/// Identifier of a cell (an index into [`Netlist::cells`]).
pub type CellId = usize;

/// One cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Function of the cell.
    pub kind: CellKind,
    /// Drive strength (as generated; the flow may virtually resize).
    pub drive: Drive,
}

/// A gate-level netlist: cells plus driver/sink connectivity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    /// All cell instances.
    cells: Vec<Cell>,
    /// Input nets of each cell (parallel to `cells`).
    cell_inputs: Vec<Vec<NetId>>,
    /// Driving cell of each net; `None` for primary inputs.
    net_driver: Vec<Option<CellId>>,
    /// Sink count of each net (cells listening to it).
    net_sink_count: Vec<u32>,
}

impl Netlist {
    fn new() -> Self {
        Netlist {
            cells: Vec::new(),
            cell_inputs: Vec::new(),
            net_driver: Vec::new(),
            net_sink_count: Vec::new(),
        }
    }

    /// Creates a primary-input net.
    fn primary_input(&mut self) -> NetId {
        self.net_driver.push(None);
        self.net_sink_count.push(0);
        self.net_driver.len() - 1
    }

    /// Adds a cell with the given inputs; returns its output net.
    fn add_cell(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        let id = self.cells.len();
        self.cells.push(Cell {
            kind,
            drive: Drive::X1,
        });
        for &n in inputs {
            self.net_sink_count[n] += 1;
        }
        self.cell_inputs.push(inputs.to_vec());
        self.net_driver.push(Some(id));
        self.net_sink_count.push(0);
        self.net_driver.len() - 1
    }

    /// Number of cell instances.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets (primary inputs + cell outputs).
    pub fn net_count(&self) -> usize {
        self.net_driver.len()
    }

    /// Borrows the cell list.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of sequential cells.
    pub fn flop_count(&self) -> usize {
        self.cells.iter().filter(|c| c.kind.is_sequential()).count()
    }

    /// Longest combinational path in gate levels (register-to-register:
    /// flop outputs restart at level 0, flop D-pins terminate paths).
    pub fn combinational_depth(&self) -> usize {
        // level[c] = combinational level of cell c's output.
        let n = self.cells.len();
        let mut level = vec![u32::MAX; n];
        let mut max_depth = 0u32;
        // Iterative DFS with explicit stack (netlists can be deep-ish).
        for start in 0..n {
            if level[start] != u32::MAX {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            while let Some(&(c, phase)) = stack.last() {
                if phase == 0 {
                    stack.last_mut().expect("nonempty").1 = 1;
                    if self.cells[c].kind.is_sequential() {
                        level[c] = 0;
                        stack.pop();
                        continue;
                    }
                    for &net in &self.cell_inputs[c] {
                        if let Some(d) = self.net_driver[net] {
                            if level[d] == u32::MAX && !self.cells[d].kind.is_sequential() {
                                stack.push((d, 0));
                            }
                        }
                    }
                } else {
                    let mut lv = 0u32;
                    for &net in &self.cell_inputs[c] {
                        if let Some(d) = self.net_driver[net] {
                            let dl = if self.cells[d].kind.is_sequential() {
                                0
                            } else {
                                level[d]
                            };
                            lv = lv.max(dl + 1);
                        } else {
                            lv = lv.max(1);
                        }
                    }
                    level[c] = lv;
                    max_depth = max_depth.max(lv);
                    stack.pop();
                }
            }
        }
        max_depth as usize
    }

    /// The distinct cells driving `cell`'s inputs (primary inputs are
    /// skipped; duplicates collapse).
    pub fn driver_cells(&self, cell: CellId) -> Vec<CellId> {
        let mut out = Vec::new();
        for &net in &self.cell_inputs[cell] {
            if let Some(d) = self.net_driver[net] {
                if !out.contains(&d) {
                    out.push(d);
                }
            }
        }
        out
    }

    /// Number of sinks listening to each cell's output net (index = cell
    /// id; 0 for a cell that drives no net), in one pass over the nets.
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.cells.len()];
        for (net, &driver) in self.net_driver.iter().enumerate() {
            if let Some(c) = driver {
                out[c] = self.net_sink_count[net] as usize;
            }
        }
        out
    }

    /// Aggregate features used by the flow model.
    pub fn stats(&self, lib: &CellLibrary) -> NetlistStats {
        let mut area = 0.0;
        let mut cap = 0.0;
        let mut leak = 0.0;
        let mut pins = 0usize;
        for (c, ins) in self.cells.iter().zip(&self.cell_inputs) {
            area += lib.area(c.kind, c.drive);
            cap += lib.input_cap(c.kind, c.drive) * ins.len() as f64;
            leak += lib.leakage(c.kind, c.drive);
            pins += ins.len() + 1;
        }
        let driven_nets = self
            .net_sink_count
            .iter()
            .filter(|&&s| s > 0)
            .count()
            .max(1);
        let total_sinks: u64 = self.net_sink_count.iter().map(|&s| s as u64).sum();
        let max_fanout = self.net_sink_count.iter().copied().max().unwrap_or(0) as usize;
        NetlistStats {
            cells: self.cell_count(),
            flops: self.flop_count(),
            nets: self.net_count(),
            pins,
            comb_depth: self.combinational_depth(),
            area_x1_um2: area,
            input_cap_ff: cap,
            leakage_nw: leak,
            avg_fanout: total_sinks as f64 / driven_nets as f64,
            max_fanout,
        }
    }
}

/// Aggregate netlist features consumed by the flow model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Cell instances.
    pub cells: usize,
    /// Sequential cells.
    pub flops: usize,
    /// Nets.
    pub nets: usize,
    /// Total pins.
    pub pins: usize,
    /// Longest register-to-register path in gate levels.
    pub comb_depth: usize,
    /// Total cell area at drive X1, µm².
    pub area_x1_um2: f64,
    /// Total input pin capacitance, fF.
    pub input_cap_ff: f64,
    /// Total leakage, nW.
    pub leakage_nw: f64,
    /// Mean sinks per driven net.
    pub avg_fanout: f64,
    /// Largest structural fanout.
    pub max_fanout: usize,
}

/// Parameters of the generated multiply-accumulate design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacConfig {
    /// Operand width in bits.
    pub width: usize,
    /// Number of parallel MAC lanes.
    pub lanes: usize,
    /// Extra accumulator guard bits beyond `2 * width`.
    pub accum_guard: usize,
    /// Pipeline the carry chains of wide adders into two stages.
    ///
    /// Wide MACs are engineered this way in practice precisely so the
    /// design meets the same clock target as its narrower siblings — the
    /// "similar designs respond similarly to the tool" premise of the
    /// paper's Scenario Two.
    pub two_stage_adders: bool,
}

impl MacConfig {
    /// The ~20k-cell MAC of the paper (Source1/Target1/Source2 design).
    pub fn small() -> Self {
        MacConfig {
            width: 16,
            lanes: 24,
            accum_guard: 8,
            two_stage_adders: false,
        }
    }

    /// The ~67k-cell MAC of the paper (Target2 design).
    pub fn large() -> Self {
        MacConfig {
            width: 32,
            lanes: 20,
            accum_guard: 8,
            two_stage_adders: true,
        }
    }

    /// Generates the gate-level netlist.
    ///
    /// # Panics
    ///
    /// Panics if `width < 4` or `lanes == 0`.
    pub fn generate(&self) -> Netlist {
        assert!(self.width >= 4, "MAC width must be at least 4 bits");
        assert!(self.lanes >= 1, "MAC needs at least one lane");
        let mut nl = Netlist::new();
        let mut lane_outputs: Vec<Vec<NetId>> = Vec::with_capacity(self.lanes);
        for _ in 0..self.lanes {
            lane_outputs.push(generate_lane(
                &mut nl,
                self.width,
                self.accum_guard,
                self.two_stage_adders,
            ));
        }
        // Cross-lane reduction: pairwise adder tree with a pipeline register
        // after each level.
        let mut current = lane_outputs;
        while current.len() > 1 {
            let mut next = Vec::with_capacity(current.len().div_ceil(2));
            let mut it = current.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => {
                        let sum = adder(&mut nl, &a, &b, self.two_stage_adders);
                        next.push(register_bank(&mut nl, &sum));
                    }
                    None => next.push(a),
                }
            }
            current = next;
        }
        nl
    }
}

/// One MAC lane: operand registers → Booth-style partial products →
/// 3:2 reduction array → carry-lookahead adder → pipeline register →
/// accumulator. Returns the accumulator output nets.
fn generate_lane(nl: &mut Netlist, width: usize, guard: usize, two_stage: bool) -> Vec<NetId> {
    // Operand registers (primary inputs clocked in).
    let a: Vec<NetId> = (0..width)
        .map(|_| {
            let d = nl.primary_input();
            let clk = nl.primary_input();
            nl.add_cell(CellKind::Dff, &[d, clk])
        })
        .collect();
    let b: Vec<NetId> = (0..width)
        .map(|_| {
            let d = nl.primary_input();
            let clk = nl.primary_input();
            nl.add_cell(CellKind::Dff, &[d, clk])
        })
        .collect();

    // Booth encoders: one per bit pair of `b`, three select signals each.
    let rows = width / 2;
    let mut pp_rows: Vec<Vec<NetId>> = Vec::with_capacity(rows);
    for r in 0..rows {
        let b0 = b[(2 * r).min(width - 1)];
        let b1 = b[(2 * r + 1).min(width - 1)];
        let bm = if r == 0 { b[0] } else { b[2 * r - 1] };
        let sel_single = nl.add_cell(CellKind::Xor2, &[b0, bm]);
        let sel_double = nl.add_cell(CellKind::Xor2, &[b1, b0]);
        let sel_neg = nl.add_cell(CellKind::Nor2, &[b1, sel_single]);
        // Partial-product row: width+1 mux bits plus a sign-correction inv.
        let mut row: Vec<NetId> = (0..=width)
            .map(|i| {
                let ai = a[i.min(width - 1)];
                let aj = a[i.saturating_sub(1)];
                nl.add_cell(CellKind::Mux2, &[ai, aj, sel_double])
            })
            .collect();
        let sign = nl.add_cell(CellKind::Inv, &[sel_neg]);
        row.push(sign);
        pp_rows.push(row);
    }

    // 3:2 reduction array down to two rows.
    let out_width = 2 * width + 2;
    while pp_rows.len() > 2 {
        let mut next: Vec<Vec<NetId>> = Vec::new();
        let mut it = pp_rows.into_iter();
        while let Some(r0) = it.next() {
            match (it.next(), it.next()) {
                (Some(r1), Some(r2)) => {
                    let (sums, carries) = compress_3_2(nl, &r0, &r1, &r2, out_width);
                    next.push(sums);
                    next.push(carries);
                }
                (Some(r1), None) => {
                    next.push(r0);
                    next.push(r1);
                }
                _ => next.push(r0),
            }
        }
        pp_rows = next;
        // 3 rows → 2 rows per pass group; terminates because each group of
        // three becomes two.
        if pp_rows.len() <= 2 {
            break;
        }
    }
    let row0 = pp_rows.first().cloned().unwrap_or_default();
    let row1 = pp_rows.get(1).cloned().unwrap_or_else(|| row0.clone());

    // Final carry-lookahead adder and pipeline register.
    let product = adder(nl, &row0, &row1, two_stage);
    let piped = register_bank(nl, &product);

    // Accumulator: product + accumulator register, fed back through flops.
    let acc_width = 2 * width + guard;
    // Accumulator register outputs (feedback) — model as flops fed by the
    // adder outputs below; to avoid a constructive cycle, materialize the
    // register first from primary "reset" inputs, then the adder reads it.
    let acc_regs: Vec<NetId> = (0..acc_width)
        .map(|_| {
            let d = nl.primary_input();
            let clk = nl.primary_input();
            nl.add_cell(CellKind::Dff, &[d, clk])
        })
        .collect();
    let sum = adder(nl, &piped, &acc_regs, two_stage);
    register_bank(nl, &sum)
}

/// One 3:2 compression step over three rows: full adders where all three
/// rows have a bit, half adders where two do, pass-through otherwise.
fn compress_3_2(
    nl: &mut Netlist,
    r0: &[NetId],
    r1: &[NetId],
    r2: &[NetId],
    out_width: usize,
) -> (Vec<NetId>, Vec<NetId>) {
    let w = r0.len().max(r1.len()).max(r2.len()).min(out_width);
    let mut sums = Vec::with_capacity(w);
    let mut carries = Vec::with_capacity(w + 1);
    // Carry row is shifted left by one: seed column 0 with a pass-through.
    for col in 0..w {
        let bits: Vec<NetId> = [r0.get(col), r1.get(col), r2.get(col)]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        match bits.len() {
            3 => {
                let x = nl.add_cell(CellKind::Xor2, &[bits[0], bits[1]]);
                let s = nl.add_cell(CellKind::Xor2, &[x, bits[2]]);
                let c = nl.add_cell(CellKind::Maj3, &[bits[0], bits[1], bits[2]]);
                sums.push(s);
                carries.push(c);
            }
            2 => {
                let s = nl.add_cell(CellKind::Xor2, &[bits[0], bits[1]]);
                let c = nl.add_cell(CellKind::And2, &[bits[0], bits[1]]);
                sums.push(s);
                carries.push(c);
            }
            1 => sums.push(bits[0]),
            _ => {}
        }
    }
    (sums, carries)
}

/// An adder, optionally pipelined into two stages at the carry-chain
/// midpoint (registers cut the carry and the not-yet-consumed operand
/// bits, halving the combinational depth at a flop-count cost).
fn adder(nl: &mut Netlist, a: &[NetId], b: &[NetId], two_stage: bool) -> Vec<NetId> {
    if !two_stage || a.len().max(b.len()) < 8 {
        return cla_adder(nl, a, b);
    }
    let w = a.len().max(b.len());
    let cut = w / 2;
    let pad = |v: &[NetId], nl: &mut Netlist| -> Vec<NetId> {
        // Pad the narrower operand with constant-zero primary inputs so
        // both halves line up.
        let mut out = v.to_vec();
        while out.len() < w {
            out.push(nl.primary_input());
        }
        out
    };
    let a = pad(a, nl);
    let b = pad(b, nl);
    // Stage 1: low half, producing sums and a carry-out.
    let low = cla_adder_with_carry(nl, &a[..cut], &b[..cut]);
    let (low_sums, carry) = low;
    // Pipeline registers across the cut: low sums, the carry, and the
    // untouched high operand bits.
    let mut regs_in: Vec<NetId> = low_sums;
    regs_in.push(carry);
    regs_in.extend_from_slice(&a[cut..]);
    regs_in.extend_from_slice(&b[cut..]);
    let regs = register_bank(nl, &regs_in);
    let low_q = &regs[..cut];
    let carry_q = regs[cut];
    let a_hi = &regs[cut + 1..cut + 1 + (w - cut)];
    let b_hi = &regs[cut + 1 + (w - cut)..];
    // Stage 2: high half with the registered carry folded into bit 0.
    let mut high = cla_adder(nl, a_hi, b_hi);
    if let Some(h0) = high.first().copied() {
        high[0] = nl.add_cell(CellKind::Xor2, &[h0, carry_q]);
    }
    let mut sums = low_q.to_vec();
    sums.extend(high);
    sums
}

/// Like [`cla_adder`] but also returns the final carry net.
fn cla_adder_with_carry(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
    let sums = cla_adder(nl, a, b);
    // Regenerate the carry from the top bits (structural approximation:
    // a majority over the top operand bits and top sum).
    let w = a.len().max(b.len());
    let ta = a[w.min(a.len()) - 1];
    let tb = b[w.min(b.len()) - 1];
    let ts = *sums.last().expect("adder has at least one bit");
    let carry = nl.add_cell(CellKind::Maj3, &[ta, tb, ts]);
    (sums, carry)
}

/// Ripple-of-lookahead-groups adder: P/G per bit, AOI carry cell per bit,
/// XOR sum per bit. Returns `max(a.len(), b.len())` sum nets.
fn cla_adder(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    let w = a.len().max(b.len());
    let mut sums = Vec::with_capacity(w);
    let mut carry: Option<NetId> = None;
    for i in 0..w {
        match (a.get(i), b.get(i)) {
            (Some(&ai), Some(&bi)) => {
                let p = nl.add_cell(CellKind::Xor2, &[ai, bi]);
                let g = nl.add_cell(CellKind::And2, &[ai, bi]);
                let s = match carry {
                    Some(c) => nl.add_cell(CellKind::Xor2, &[p, c]),
                    None => p,
                };
                let c_out = match carry {
                    Some(c) => nl.add_cell(CellKind::Aoi21, &[p, c, g]),
                    None => g,
                };
                sums.push(s);
                carry = Some(c_out);
            }
            (Some(&x), None) | (None, Some(&x)) => {
                let s = match carry {
                    Some(c) => nl.add_cell(CellKind::Xor2, &[x, c]),
                    None => x,
                };
                let c_out = carry.map(|c| nl.add_cell(CellKind::And2, &[x, c]));
                sums.push(s);
                carry = c_out;
            }
            (None, None) => unreachable!("loop bounded by max width"),
        }
    }
    sums
}

/// A register bank: one DFF per input net, sharing a clock input net.
fn register_bank(nl: &mut Netlist, data: &[NetId]) -> Vec<NetId> {
    let clk = nl.primary_input();
    data.iter()
        .map(|&d| nl.add_cell(CellKind::Dff, &[d, clk]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mac_lands_near_20k_cells() {
        let nl = MacConfig::small().generate();
        let n = nl.cell_count();
        assert!(
            (14_000..=30_000).contains(&n),
            "small MAC has {n} cells, expected ~20k"
        );
    }

    #[test]
    fn large_mac_lands_near_67k_cells() {
        let nl = MacConfig::large().generate();
        let n = nl.cell_count();
        assert!(
            (52_000..=85_000).contains(&n),
            "large MAC has {n} cells, expected ~67k"
        );
    }

    #[test]
    fn large_is_substantially_larger() {
        let s = MacConfig::small().generate().cell_count();
        let l = MacConfig::large().generate().cell_count();
        assert!(l as f64 > 2.0 * s as f64);
    }

    #[test]
    fn depth_is_plausible_for_a_pipelined_mac() {
        let nl = MacConfig::small().generate();
        let d = nl.combinational_depth();
        // Reduction array + CLA carry chains: tens of levels, not thousands.
        assert!((10..=200).contains(&d), "depth {d}");
    }

    #[test]
    fn stats_are_consistent() {
        let lib = CellLibrary::sevennm();
        let nl = MacConfig {
            width: 8,
            lanes: 2,
            accum_guard: 4,
            two_stage_adders: false,
        }
        .generate();
        let st = nl.stats(&lib);
        assert_eq!(st.cells, nl.cell_count());
        assert_eq!(st.flops, nl.flop_count());
        assert!(st.flops > 0 && st.flops < st.cells);
        assert!(st.area_x1_um2 > 0.0);
        assert!(st.input_cap_ff > 0.0);
        assert!(st.leakage_nw > 0.0);
        assert!(st.avg_fanout >= 1.0);
        assert!(st.max_fanout >= 2);
        assert!(st.nets >= st.cells);
        assert!(st.comb_depth == nl.combinational_depth());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = MacConfig {
            width: 8,
            lanes: 3,
            accum_guard: 4,
            two_stage_adders: false,
        }
        .generate();
        let b = MacConfig {
            width: 8,
            lanes: 3,
            accum_guard: 4,
            two_stage_adders: false,
        }
        .generate();
        assert_eq!(a, b);
    }

    #[test]
    fn wider_mac_is_deeper() {
        let shallow = MacConfig {
            width: 8,
            lanes: 1,
            accum_guard: 4,
            two_stage_adders: false,
        }
        .generate()
        .combinational_depth();
        let deep = MacConfig {
            width: 32,
            lanes: 1,
            accum_guard: 4,
            two_stage_adders: false,
        }
        .generate()
        .combinational_depth();
        assert!(deep > shallow, "deep {deep} vs shallow {shallow}");
    }

    #[test]
    #[should_panic(expected = "at least 4 bits")]
    fn rejects_tiny_width() {
        MacConfig {
            width: 2,
            lanes: 1,
            accum_guard: 2,
            two_stage_adders: false,
        }
        .generate();
    }

    #[test]
    fn cla_adder_width_is_max_of_inputs() {
        let mut nl = Netlist::new();
        let a: Vec<NetId> = (0..4).map(|_| nl.primary_input()).collect();
        let b: Vec<NetId> = (0..6).map(|_| nl.primary_input()).collect();
        let s = cla_adder(&mut nl, &a, &b);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn register_bank_adds_one_flop_per_bit() {
        let mut nl = Netlist::new();
        let data: Vec<NetId> = (0..5).map(|_| nl.primary_input()).collect();
        let q = register_bank(&mut nl, &data);
        assert_eq!(q.len(), 5);
        assert_eq!(nl.flop_count(), 5);
    }
}
