//! The full-scan combinational view of a sequential netlist.

use crate::{GateId, Netlist, NetlistError};

/// The full-scan combinational view: PI + PPI → PO + PPO.
///
/// Full scan makes every flip-flop directly controllable (its output becomes
/// a pseudo-primary input, PPI) and observable (its data input becomes a
/// pseudo-primary output, PPO), reducing sequential ATPG to combinational
/// ATPG — the property the stitching paper builds on, since it removes any
/// required order among test vectors.
///
/// The view fixes the index conventions used by every simulator and by ATPG:
///
/// * **combinational input `i`**: `i < pi_count()` is primary input `i`;
///   otherwise PPI `i - pi_count()`, i.e. scan cell `i - pi_count()` (cell 0
///   is the scan-in side).
/// * **combinational output `o`**: `o < po_count()` is primary output `o`;
///   otherwise PPO `o - po_count()`, i.e. the next-state value captured into
///   scan cell `o - po_count()`.
/// * **`order()`** is a topological order of the combinational gates; a
///   single forward sweep evaluates the whole core.
#[derive(Debug, Clone)]
pub struct ScanView {
    pis: Vec<GateId>,
    ppis: Vec<GateId>,
    pos: Vec<GateId>,
    /// PPO sources: for each flip-flop (in scan order), the gate driving its
    /// D input.
    ppos: Vec<GateId>,
    order: Vec<GateId>,
    /// For each gate (dense index): its topological level; sources get 0.
    level: Vec<u32>,
    /// CSR index into `cf_data`: `cf_data[cf_index[g]..cf_index[g+1]]` are
    /// the deduplicated *combinational* consumers of gate `g` (sequential
    /// DFF edges filtered out, multi-pin consumers listed once).
    cf_index: Vec<u32>,
    cf_data: Vec<GateId>,
    /// CSR index into `cone_data`: `cone_data[cone_index[i]..cone_index[i+1]]`
    /// is the transitive combinational fanout cone of input `i`, in
    /// topological order.
    cone_index: Vec<u32>,
    cone_data: Vec<GateId>,
    /// CSR index into `drives_data`: `drives_data[drives_index[g]..
    /// drives_index[g+1]]` are the combinational outputs gate `g` drives.
    drives_index: Vec<u32>,
    drives_data: Vec<u32>,
    /// For each gate: the PPO a scan cell captures into (`u32::MAX` for
    /// every other gate).
    capture: Vec<u32>,
    /// For each gate: its combinational-input index if it is a PI or PPI
    /// (`u32::MAX` for every other gate).
    input_of: Vec<u32>,
}

impl ScanView {
    pub(crate) fn build(netlist: &Netlist) -> Result<ScanView, NetlistError> {
        let n = netlist.gate_count();
        // Kahn's algorithm over combinational gates only; Input/Dff gates are
        // sources with level 0 and do not depend on anything (a DFF's fanin
        // is a *sequential* edge, deliberately ignored here).
        let mut indeg = vec![0u32; n];
        for id in netlist.gate_ids() {
            let gate = netlist.gate(id);
            if gate.kind().is_combinational() {
                indeg[id.index()] = gate.fanin().len() as u32;
            }
        }
        let mut level = vec![0u32; n];
        let mut ready: Vec<GateId> = netlist
            .gate_ids()
            .filter(|&id| netlist.gate(id).kind().is_source())
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut seen = ready.len();
        let mut head = 0;
        while head < ready.len() {
            let id = ready[head];
            head += 1;
            for &(consumer, _pin) in netlist.fanout(id) {
                let ci = consumer.index();
                if netlist.gate(consumer).kind().is_combinational() {
                    level[ci] = level[ci].max(level[id.index()] + 1);
                    indeg[ci] -= 1;
                    if indeg[ci] == 0 {
                        ready.push(consumer);
                        order.push(consumer);
                        seen += 1;
                    }
                }
            }
        }
        if seen != n {
            // Some combinational gate never became ready → cycle.
            let stuck = netlist
                .gate_ids()
                .find(|&id| netlist.gate(id).kind().is_combinational() && indeg[id.index()] > 0)
                // `seen != n` guarantees such a gate. lint:allow(SRC005)
                .expect("cycle implies a stuck gate");
            return Err(NetlistError::CombinationalCycle(
                netlist.gate_name(stuck).to_owned(),
            ));
        }

        let ppos = netlist
            .dffs
            .iter()
            .map(|&ff| netlist.gate(ff).fanin()[0])
            .collect();

        // Deduplicated combinational fanout, CSR form. The raw
        // `Netlist::fanout` lists one (consumer, pin) pair per connection;
        // event-driven simulation only needs each combinational consumer
        // once, with sequential DFF edges filtered out.
        let mut seen = vec![0u32; n];
        let mut cf_index = Vec::with_capacity(n + 1);
        let mut cf_data: Vec<GateId> = Vec::new();
        cf_index.push(0u32);
        for id in netlist.gate_ids() {
            let stamp = id.index() as u32 + 1;
            for &(consumer, _pin) in netlist.fanout(id) {
                let ci = consumer.index();
                if netlist.gate(consumer).kind().is_combinational() && seen[ci] != stamp {
                    seen[ci] = stamp;
                    cf_data.push(consumer);
                }
            }
            cf_index.push(cf_data.len() as u32);
        }

        // Transitive fanout cone of every combinational input (PI or scan
        // cell), stored topologically sorted so a cone can be replayed as a
        // partial sweep. Total cone size is bounded by inputs × gates but in
        // practice sits near inputs × average-cone (≈400k entries on the
        // largest built-in profile), cheap enough to precompute eagerly.
        let mut pos = vec![0u32; n];
        for (t, &id) in order.iter().enumerate() {
            pos[id.index()] = t as u32;
        }
        let input_count = netlist.inputs.len() + netlist.dffs.len();
        let mut mark = vec![0u32; n];
        let mut cone_index = Vec::with_capacity(input_count + 1);
        let mut cone_data: Vec<GateId> = Vec::new();
        let mut stack: Vec<GateId> = Vec::new();
        cone_index.push(0u32);
        for i in 0..input_count {
            let stamp = i as u32 + 1;
            let src = if i < netlist.inputs.len() {
                netlist.inputs[i]
            } else {
                netlist.dffs[i - netlist.inputs.len()]
            };
            let start = cone_data.len();
            stack.push(src);
            while let Some(g) = stack.pop() {
                let gi = g.index();
                let fans = &cf_data[cf_index[gi] as usize..cf_index[gi + 1] as usize];
                for &c in fans {
                    if mark[c.index()] != stamp {
                        mark[c.index()] = stamp;
                        cone_data.push(c);
                        stack.push(c);
                    }
                }
            }
            cone_data[start..].sort_unstable_by_key(|g| pos[g.index()]);
            cone_index.push(cone_data.len() as u32);
        }

        // Output drivers, inverted into CSR form: fault simulation reads
        // only the outputs of gates that diverged from a baseline.
        let drivers: Vec<GateId> = netlist.outputs.iter().chain(&ppos).copied().collect();
        let mut drives_index = vec![0u32; n + 1];
        for d in &drivers {
            drives_index[d.index() + 1] += 1;
        }
        for g in 0..n {
            drives_index[g + 1] += drives_index[g];
        }
        let mut fill = drives_index.clone();
        let mut drives_data = vec![0u32; drivers.len()];
        for (o, d) in drivers.iter().enumerate() {
            drives_data[fill[d.index()] as usize] = o as u32;
            fill[d.index()] += 1;
        }
        let mut capture = vec![u32::MAX; n];
        for (k, ff) in netlist.dffs.iter().enumerate() {
            capture[ff.index()] = (netlist.outputs.len() + k) as u32;
        }
        let mut input_of = vec![u32::MAX; n];
        for (i, src) in netlist.inputs.iter().chain(&netlist.dffs).enumerate() {
            input_of[src.index()] = i as u32;
        }

        Ok(ScanView {
            pis: netlist.inputs.clone(),
            ppis: netlist.dffs.clone(),
            pos: netlist.outputs.clone(),
            ppos,
            order,
            level,
            cf_index,
            cf_data,
            cone_index,
            cone_data,
            drives_index,
            drives_data,
            capture,
            input_of,
        })
    }

    /// Number of primary inputs.
    pub fn pi_count(&self) -> usize {
        self.pis.len()
    }

    /// Number of pseudo-primary inputs (scan cells).
    pub fn ppi_count(&self) -> usize {
        self.ppis.len()
    }

    /// Total combinational inputs: `pi_count() + ppi_count()`.
    pub fn input_count(&self) -> usize {
        self.pis.len() + self.ppis.len()
    }

    /// Number of primary outputs.
    pub fn po_count(&self) -> usize {
        self.pos.len()
    }

    /// Number of pseudo-primary outputs (scan-cell next-state nets).
    pub fn ppo_count(&self) -> usize {
        self.ppos.len()
    }

    /// Total combinational outputs: `po_count() + ppo_count()`.
    pub fn output_count(&self) -> usize {
        self.pos.len() + self.ppos.len()
    }

    /// The source gate for combinational input `i` (PI or scan-cell output).
    ///
    /// # Panics
    ///
    /// Panics if `i >= input_count()`.
    pub fn input_gate(&self, i: usize) -> GateId {
        if i < self.pis.len() {
            self.pis[i]
        } else {
            self.ppis[i - self.pis.len()]
        }
    }

    /// The driving gate for combinational output `o` (PO signal or the gate
    /// feeding a scan cell's D input).
    ///
    /// # Panics
    ///
    /// Panics if `o >= output_count()`.
    pub fn output_gate(&self, o: usize) -> GateId {
        if o < self.pos.len() {
            self.pos[o]
        } else {
            self.ppos[o - self.pos.len()]
        }
    }

    /// Primary inputs in index order.
    pub fn pis(&self) -> &[GateId] {
        &self.pis
    }

    /// Scan cells (PPIs) in chain order.
    pub fn ppis(&self) -> &[GateId] {
        &self.ppis
    }

    /// Primary outputs in index order.
    pub fn pos(&self) -> &[GateId] {
        &self.pos
    }

    /// PPO driver gates in chain order.
    pub fn ppos(&self) -> &[GateId] {
        &self.ppos
    }

    /// Topological evaluation order of the combinational gates (sources
    /// excluded); evaluating gates in this order with source values already
    /// set yields every signal value in one sweep.
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Topological level of a gate (0 for sources).
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from the same netlist.
    pub fn level(&self, id: GateId) -> u32 {
        self.level[id.index()]
    }

    /// Maximum topological level (combinational depth).
    pub fn depth(&self) -> u32 {
        self.level.iter().copied().max().unwrap_or(0)
    }

    /// The deduplicated combinational consumers of a gate — the fanout with
    /// sequential (DFF) edges removed and multi-pin consumers listed once.
    ///
    /// This is the edge relation of event-driven incremental simulation: a
    /// changed signal can only affect these gates within the same sweep.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from the same netlist.
    pub fn comb_fanout(&self, id: GateId) -> &[GateId] {
        let gi = id.index();
        &self.cf_data[self.cf_index[gi] as usize..self.cf_index[gi + 1] as usize]
    }

    /// The transitive combinational fanout cone of combinational input `i`
    /// (PI-then-PPI convention), in topological order.
    ///
    /// Every gate whose value can depend on input `i` is in this slice; its
    /// length bounds the re-evaluation work a single-input change can cause.
    ///
    /// # Panics
    ///
    /// Panics if `i >= input_count()`.
    pub fn input_cone(&self, i: usize) -> &[GateId] {
        &self.cone_data[self.cone_index[i] as usize..self.cone_index[i + 1] as usize]
    }

    /// The transitive combinational fanout cone of scan cell `cell`
    /// (equivalent to `input_cone(pi_count() + cell)`).
    ///
    /// # Panics
    ///
    /// Panics if `cell >= ppi_count()`.
    pub fn scan_cell_cone(&self, cell: usize) -> &[GateId] {
        self.input_cone(self.pis.len() + cell)
    }

    /// The combinational outputs (PO-then-PPO indices) whose driver is
    /// `id` — empty for a gate that drives none.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from the same netlist.
    pub fn outputs_driven_by(&self, id: GateId) -> &[u32] {
        let gi = id.index();
        &self.drives_data[self.drives_index[gi] as usize..self.drives_index[gi + 1] as usize]
    }

    /// The combinational output (a PPO) that scan cell `id` captures into,
    /// or `None` if `id` is not a scan cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from the same netlist.
    pub fn capture_output(&self, id: GateId) -> Option<usize> {
        let o = self.capture[id.index()];
        (o != u32::MAX).then_some(o as usize)
    }

    /// The combinational-input index of a gate if it is a PI or PPI.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from the same netlist.
    pub fn input_index_of(&self, id: GateId) -> Option<usize> {
        let i = self.input_of[id.index()];
        (i != u32::MAX).then_some(i as usize)
    }
}

#[cfg(test)]
mod tests {
    use crate::{GateKind, NetlistBuilder};

    fn fig1() -> crate::Netlist {
        let mut b = NetlistBuilder::new("fig1");
        b.add_dff("a", "F").unwrap();
        b.add_dff("b", "E").unwrap();
        b.add_dff("c", "D").unwrap();
        b.add_gate("D", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("E", GateKind::Or, &["b", "c"]).unwrap();
        b.add_gate("F", GateKind::And, &["D", "E"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_indexing() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        assert_eq!(v.pi_count(), 0);
        assert_eq!(v.ppi_count(), 3);
        assert_eq!(v.po_count(), 0);
        assert_eq!(v.ppo_count(), 3);
        assert_eq!(v.input_gate(0), n.find("a").unwrap());
        assert_eq!(v.input_gate(2), n.find("c").unwrap());
        // PPO order follows the scan order: D of a is F, of b is E, of c is D.
        assert_eq!(v.output_gate(0), n.find("F").unwrap());
        assert_eq!(v.output_gate(1), n.find("E").unwrap());
        assert_eq!(v.output_gate(2), n.find("D").unwrap());
    }

    #[test]
    fn output_drivers_and_captures_invert_the_output_map() {
        let mut b = NetlistBuilder::new("shared");
        b.add_input("i").unwrap();
        b.add_dff("q", "y").unwrap();
        b.add_gate("y", GateKind::And, &["i", "q"]).unwrap();
        b.mark_output("y").unwrap();
        b.mark_output("i").unwrap();
        let n = b.build().unwrap();
        let v = n.scan_view().unwrap();
        // y drives PO 0 and the PPO of q (output 2); i drives PO 1.
        assert_eq!(v.outputs_driven_by(n.find("y").unwrap()), &[0, 2]);
        assert_eq!(v.outputs_driven_by(n.find("i").unwrap()), &[1]);
        assert!(v.outputs_driven_by(n.find("q").unwrap()).is_empty());
        assert_eq!(v.capture_output(n.find("q").unwrap()), Some(2));
        assert_eq!(v.capture_output(n.find("y").unwrap()), None);
        for o in 0..v.output_count() {
            assert!(v.outputs_driven_by(v.output_gate(o)).contains(&(o as u32)));
        }
    }

    #[test]
    fn order_is_topological() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        assert_eq!(v.order().len(), 3); // D, E, F in some valid order
        let pos_of = |name: &str| {
            v.order()
                .iter()
                .position(|&g| g == n.find(name).unwrap())
                .unwrap()
        };
        assert!(pos_of("D") < pos_of("F"));
        assert!(pos_of("E") < pos_of("F"));
        assert_eq!(v.level(n.find("F").unwrap()), 2);
        assert_eq!(v.depth(), 2);
    }

    #[test]
    fn input_index_of_finds_sources() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        assert_eq!(v.input_index_of(n.find("b").unwrap()), Some(1));
        assert_eq!(v.input_index_of(n.find("F").unwrap()), None);
    }

    #[test]
    fn comb_fanout_filters_sequential_edges_and_dedups() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        // b feeds D and E (combinational); its own DFF capture edge (E -> b)
        // must not appear as fanout of E.
        let names = |gates: &[crate::GateId]| -> Vec<&str> {
            gates.iter().map(|&g| n.gate_name(g)).collect()
        };
        let mut b_fan = names(v.comb_fanout(n.find("b").unwrap()));
        b_fan.sort_unstable();
        assert_eq!(b_fan, vec!["D", "E"]);
        assert_eq!(names(v.comb_fanout(n.find("E").unwrap())), vec!["F"]);
        assert!(v.comb_fanout(n.find("F").unwrap()).is_empty());

        // A consumer with the same signal on two pins appears once.
        let mut bb = NetlistBuilder::new("dup");
        bb.add_input("a").unwrap();
        bb.add_gate("y", GateKind::And, &["a", "a"]).unwrap();
        bb.mark_output("y").unwrap();
        let nd = bb.build().unwrap();
        let vd = nd.scan_view().unwrap();
        assert_eq!(vd.comb_fanout(nd.find("a").unwrap()).len(), 1);
    }

    #[test]
    fn input_cones_are_transitive_and_topological() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let cone_names =
            |i: usize| -> Vec<&str> { v.input_cone(i).iter().map(|&g| n.gate_name(g)).collect() };
        // b reaches D, E and (through both) F; topological order puts F last.
        let b_cone = cone_names(1);
        assert_eq!(b_cone.len(), 3);
        assert_eq!(*b_cone.last().unwrap(), "F");
        // a reaches only D then F; c reaches only E then F.
        assert_eq!(cone_names(0), vec!["D", "F"]);
        assert_eq!(cone_names(2), vec!["E", "F"]);
        // fig1 is all-PPI, so scan_cell_cone is the same table.
        assert_eq!(v.scan_cell_cone(1), v.input_cone(1));
        // Cones are topologically sorted (level never decreases).
        for i in 0..v.input_count() {
            let cone = v.input_cone(i);
            for w in cone.windows(2) {
                assert!(v.level(w[0]) <= v.level(w[1]));
            }
        }
    }

    #[test]
    fn mixed_pi_ppi_indexing() {
        let mut b = NetlistBuilder::new("mix");
        b.add_input("i0").unwrap();
        b.add_input("i1").unwrap();
        b.add_dff("q", "d").unwrap();
        b.add_gate("d", GateKind::And, &["i0", "q"]).unwrap();
        b.add_gate("o", GateKind::Or, &["i1", "q"]).unwrap();
        b.mark_output("o").unwrap();
        let n = b.build().unwrap();
        let v = n.scan_view().unwrap();
        assert_eq!(v.input_count(), 3);
        assert_eq!(v.output_count(), 2);
        assert_eq!(v.input_gate(2), n.find("q").unwrap());
        assert_eq!(v.output_gate(0), n.find("o").unwrap());
        assert_eq!(v.output_gate(1), n.find("d").unwrap());
        assert_eq!(v.input_index_of(n.find("q").unwrap()), Some(2));
        for i in 0..v.input_count() {
            assert_eq!(v.input_index_of(v.input_gate(i)), Some(i));
        }
        assert_eq!(v.input_index_of(n.find("o").unwrap()), None);
    }
}
