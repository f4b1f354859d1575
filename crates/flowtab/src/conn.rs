//! A compact TCP connection state machine.
//!
//! Tracks enough of RFC 793 to classify connections the way Bro's connection
//! summaries do: did the initiator send a SYN, was the handshake completed,
//! did the connection close cleanly (FIN exchange) or abort (RST). The
//! tracker is deliberately endpoint-agnostic — it observes a packet stream
//! from the middle (or from a host's own capture) rather than owning a
//! socket.

use crate::tuple::FlowDirection;
use netpkt::TcpFlags;

/// Observable lifecycle states of a tracked TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpConnState {
    /// Nothing but the initial SYN from the initiator.
    SynSent,
    /// SYN and SYN|ACK seen; waiting for the final handshake ACK.
    SynReceived,
    /// Handshake complete; data may flow.
    Established,
    /// One side sent FIN.
    FinWait,
    /// Both sides sent FIN (clean close).
    Closed,
    /// Connection aborted with RST.
    Reset,
    /// Traffic seen without a handshake (capture started mid-connection,
    /// or a scanner's bare data packet).
    Midstream,
}

impl TcpConnState {
    /// True once no further state transitions are possible.
    pub fn is_terminal(self) -> bool {
        matches!(self, TcpConnState::Closed | TcpConnState::Reset)
    }
}

/// Per-connection TCP tracker.
#[derive(Debug, Clone)]
pub struct TcpTracker {
    state: TcpConnState,
    /// SYN (without ACK) seen from the initiator.
    initiator_syn: bool,
    /// SYN|ACK seen from the responder.
    responder_synack: bool,
    fin_from_initiator: bool,
    fin_from_responder: bool,
    /// Count of pure SYN packets from the initiator (retransmissions
    /// included — scan detectors count SYN attempts, not connections).
    syn_count: u32,
}

impl TcpTracker {
    /// Start tracking from the first observed packet of a connection.
    pub fn new(first_flags: TcpFlags, first_dir: FlowDirection) -> Self {
        let mut t = Self {
            state: TcpConnState::Midstream,
            initiator_syn: false,
            responder_synack: false,
            fin_from_initiator: false,
            fin_from_responder: false,
            syn_count: 0,
        };
        t.observe(first_flags, first_dir);
        t
    }

    /// Current connection state.
    pub fn state(&self) -> TcpConnState {
        self.state
    }

    /// True if the initiator's opening SYN was observed.
    pub fn initiator_syn(&self) -> bool {
        self.initiator_syn
    }

    /// Number of pure SYNs observed from the initiator.
    pub fn syn_count(&self) -> u32 {
        self.syn_count
    }

    /// Feed one packet's flags and direction through the state machine.
    pub fn observe(&mut self, flags: TcpFlags, dir: FlowDirection) {
        if flags.syn() && !flags.ack() && dir == FlowDirection::FromInitiator {
            self.initiator_syn = true;
            self.syn_count += 1;
        }
        if flags.syn() && flags.ack() && dir == FlowDirection::FromResponder {
            self.responder_synack = true;
        }
        if flags.fin() {
            match dir {
                FlowDirection::FromInitiator => self.fin_from_initiator = true,
                FlowDirection::FromResponder => self.fin_from_responder = true,
            }
        }

        if self.state.is_terminal() {
            return;
        }
        if flags.rst() {
            self.state = TcpConnState::Reset;
            return;
        }

        self.state = match self.state {
            TcpConnState::Midstream if self.initiator_syn && !self.responder_synack => {
                TcpConnState::SynSent
            }
            TcpConnState::SynSent if self.responder_synack => TcpConnState::SynReceived,
            TcpConnState::SynReceived
                if flags.ack() && !flags.syn() && dir == FlowDirection::FromInitiator =>
            {
                TcpConnState::Established
            }
            s @ (TcpConnState::Established | TcpConnState::FinWait) => {
                match (self.fin_from_initiator, self.fin_from_responder) {
                    (true, true) => TcpConnState::Closed,
                    (true, false) | (false, true) => TcpConnState::FinWait,
                    (false, false) => s,
                }
            }
            // A midstream connection that exchanges FINs still closes.
            TcpConnState::Midstream if self.fin_from_initiator && self.fin_from_responder => {
                TcpConnState::Closed
            }
            s => s,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use FlowDirection::{FromInitiator as I, FromResponder as R};

    fn flags(bits: u8) -> TcpFlags {
        TcpFlags(bits)
    }

    #[test]
    fn full_lifecycle_clean_close() {
        let mut t = TcpTracker::new(TcpFlags::syn_only(), I);
        assert_eq!(t.state(), TcpConnState::SynSent);
        assert!(t.initiator_syn());
        t.observe(TcpFlags::syn_ack(), R);
        assert_eq!(t.state(), TcpConnState::SynReceived);
        t.observe(flags(TcpFlags::ACK), I);
        assert_eq!(t.state(), TcpConnState::Established);
        t.observe(flags(TcpFlags::ACK | TcpFlags::PSH), I);
        assert_eq!(t.state(), TcpConnState::Established);
        t.observe(flags(TcpFlags::FIN | TcpFlags::ACK), I);
        assert_eq!(t.state(), TcpConnState::FinWait);
        t.observe(flags(TcpFlags::FIN | TcpFlags::ACK), R);
        assert_eq!(t.state(), TcpConnState::Closed);
        assert!(t.state().is_terminal());
    }

    #[test]
    fn rst_aborts_from_any_state() {
        let mut t = TcpTracker::new(TcpFlags::syn_only(), I);
        t.observe(flags(TcpFlags::RST), R);
        assert_eq!(t.state(), TcpConnState::Reset);
        // Terminal: further packets don't resurrect it.
        t.observe(TcpFlags::syn_ack(), R);
        assert_eq!(t.state(), TcpConnState::Reset);
    }

    #[test]
    fn syn_retransmissions_counted() {
        let mut t = TcpTracker::new(TcpFlags::syn_only(), I);
        t.observe(TcpFlags::syn_only(), I);
        t.observe(TcpFlags::syn_only(), I);
        assert_eq!(t.syn_count(), 3);
        assert_eq!(t.state(), TcpConnState::SynSent);
    }

    #[test]
    fn midstream_traffic_recognised() {
        let mut t = TcpTracker::new(flags(TcpFlags::ACK | TcpFlags::PSH), I);
        assert_eq!(t.state(), TcpConnState::Midstream);
        assert!(!t.initiator_syn());
        // Midstream FIN exchange still closes.
        t.observe(flags(TcpFlags::FIN | TcpFlags::ACK), I);
        t.observe(flags(TcpFlags::FIN | TcpFlags::ACK), R);
        assert_eq!(t.state(), TcpConnState::Closed);
    }

    #[test]
    fn synack_first_is_midstream_not_syn_sent() {
        // Seeing only the responder's SYN|ACK (e.g. asymmetric capture)
        // must not count as an initiator SYN.
        let t = TcpTracker::new(TcpFlags::syn_ack(), R);
        assert!(!t.initiator_syn());
        assert_eq!(t.syn_count(), 0);
    }

    #[test]
    fn handshake_requires_initiator_ack() {
        let mut t = TcpTracker::new(TcpFlags::syn_only(), I);
        t.observe(TcpFlags::syn_ack(), R);
        // An ACK from the *responder* does not complete the handshake.
        t.observe(flags(TcpFlags::ACK), R);
        assert_eq!(t.state(), TcpConnState::SynReceived);
        t.observe(flags(TcpFlags::ACK), I);
        assert_eq!(t.state(), TcpConnState::Established);
    }
}
