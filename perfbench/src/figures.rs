//! Simulated figures pooled over a workload's policy reports. They depend
//! only on the seed, so every run of the same code and seed must give the
//! same values and the same digest.

use janus_core::experiments::sweep::PolicyCell;
use janus_core::platform::outcome::RequestDisposition;
use janus_core::simcore::stats::percentile;
use janus_core::PolicyReport;

/// Running totals over the policy reports of one workload pass.
#[derive(Debug, Default)]
pub struct SimFigures {
    /// Requests generated, over every policy.
    pub generated: u64,
    /// Requests served to completion, over every policy.
    pub served: u64,
    /// Requests shed at admission or failed by faults, over every policy.
    pub lost: u64,
    janus_generated: u64,
    janus_met: u64,
    janus_e2e_ms: Vec<f64>,
    janus_cpu: f64,
    janus_served: u64,
    orion_cpu: f64,
    orion_served: u64,
    /// Per-policy figures, in report order, canonically encoded; the digest
    /// covers them.
    cells: Vec<String>,
}

impl SimFigures {
    /// Fold one spec's reports in; `label` names the spec in the digest.
    pub fn add(&mut self, label: &str, reports: &[PolicyReport]) {
        for report in reports {
            let serving = &report.serving;
            self.generated += serving.len() as u64;
            self.served += serving.served_len() as u64;
            self.lost += (serving.shed_len() + serving.failed_len()) as u64;
            let cpu_sum = serving.mean_cpu_millicores() * serving.served_len() as f64;
            match report.name.as_str() {
                "Janus" => {
                    self.janus_generated += serving.len() as u64;
                    for outcome in &serving.outcomes {
                        if outcome.slo_met {
                            self.janus_met += 1;
                        }
                        if outcome.disposition == RequestDisposition::Served {
                            self.janus_e2e_ms.push(outcome.e2e.as_millis());
                        }
                    }
                    self.janus_cpu += cpu_sum;
                    self.janus_served += serving.served_len() as u64;
                }
                "ORION" => {
                    self.orion_cpu += cpu_sum;
                    self.orion_served += serving.served_len() as u64;
                }
                _ => {}
            }
            let cell = PolicyCell::from_report(report).to_json().to_compact();
            self.cells.push(format!("{label}:{cell}"));
        }
    }

    /// Janus requests that met the SLO over Janus requests generated; shed
    /// and failed requests count as misses.
    pub fn slo_attainment(&self) -> f64 {
        self.janus_met as f64 / self.janus_generated.max(1) as f64
    }

    /// Served over generated, over every policy.
    pub fn served_fraction(&self) -> f64 {
        self.served as f64 / self.generated.max(1) as f64
    }

    /// p99 end-to-end latency of every served Janus request, in ms.
    pub fn janus_p99_ms(&self) -> f64 {
        percentile(&self.janus_e2e_ms, 99.0).unwrap_or(f64::NAN)
    }

    /// Janus mean CPU per served request over ORION's, each pooled over
    /// every spec of the workload.
    pub fn janus_cpu_vs_orion(&self) -> f64 {
        (self.janus_cpu / self.janus_served as f64) / (self.orion_cpu / self.orion_served as f64)
    }

    /// SHA-256 over every per-policy figure, in order.
    pub fn digest(&self) -> String {
        janus_results::sha256_hex(self.cells.join("\n").as_bytes())
    }

    /// Fail unless Janus and ORION both ran and Janus served something.
    pub fn check_complete(&self) -> Result<(), String> {
        if self.janus_e2e_ms.is_empty() || self.orion_served == 0 || self.orion_cpu <= 0.0 {
            return Err("figures need served Janus and ORION requests".into());
        }
        Ok(())
    }
}
