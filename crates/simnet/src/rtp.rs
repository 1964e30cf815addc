//! The receiver report of the paper's thin RTP/RTCP-style layer.
//!
//! The paper (§5.1) notes that UDP multicast alone limits reliability,
//! so "a thin layer based on the RTP-RTCP scheme is built on top of the
//! communication substrate to provide limited in-order delivery
//! assurance". Media packets already carry an object id and a packet
//! index, so the receiving application orders and reassembles them
//! itself (`cqos_core::apps::ImageViewer`) with no header of its own on
//! the wire; what it keeps of RTCP is the receiver report, built from
//! the counts it books as packets arrive.
//!
//! ECN feedback rides the report: a receiver counts the arrivals that
//! came Congestion-Experienced (marked by a link's AQM instead of
//! being dropped, see `net::Datagram::ecn_ce`), and
//! [`ReceiverReport::fraction_ecn_ce`] carries the share back, so the
//! adaptation loop can react to congestion *before* any packet is lost.

/// RTCP receiver-report-style statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReceiverReport {
    /// Distinct packets taken by the application.
    pub received: u64,
    /// Packets counted lost: missing below a higher one received.
    pub lost: u64,
    /// Fraction lost in `[0,1]` over the stream lifetime:
    /// `lost / (received + lost)`.
    pub fraction_lost: f64,
    /// Arrivals discarded as copies: of a packet already held, or of
    /// one the receiver is done with.
    pub duplicates: u64,
    /// Arrivals that carried the ECN Congestion-Experienced mark.
    pub ecn_ce: u64,
    /// Fraction of all arrivals that were CE-marked, in `[0, 1]` — the
    /// congestion signal the adaptation loop consumes as
    /// `congestion_pct` (× 100). Congestion shows here *before*
    /// `fraction_lost` moves: the AQM marks ECN-capable traffic where
    /// it would drop anything else.
    pub fraction_ecn_ce: f64,
}

impl ReceiverReport {
    /// The report of a receiver that took `received` distinct packets,
    /// counted `lost` missing and `duplicates` copies, and saw `ecn_ce`
    /// of its `arrivals` (every arrival, copies included) CE-marked.
    /// Both fractions are computed here, 0 over an empty denominator.
    pub fn from_counts(
        received: u64,
        lost: u64,
        duplicates: u64,
        arrivals: u64,
        ecn_ce: u64,
    ) -> ReceiverReport {
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        ReceiverReport {
            received,
            lost,
            fraction_lost: share(lost, received + lost),
            duplicates,
            ecn_ce,
            fraction_ecn_ce: share(ecn_ce, arrivals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_fractions_come_from_the_counts() {
        let r = ReceiverReport::from_counts(75, 25, 3, 103, 10);
        assert_eq!(
            (r.received, r.lost, r.duplicates, r.ecn_ce),
            (75, 25, 3, 10)
        );
        assert_eq!(r.fraction_lost, 0.25);
        assert_eq!(r.fraction_ecn_ce, 10.0 / 103.0);
    }

    #[test]
    fn an_empty_stream_reports_nothing() {
        assert_eq!(
            ReceiverReport::from_counts(0, 0, 0, 0, 0),
            ReceiverReport::default()
        );
    }
}
