//! Materialized reference strings.
//!
//! A [`Trace`] is an immutable, replayable sequence of [`Request`]s. The
//! experiment harness materializes each workload once and replays it against
//! every policy, guaranteeing all techniques see the identical reference
//! string (the paper's footnote 5). Traces serialize to JSON for archival.

use crate::generator::RequestGenerator;
use crate::request::{Request, Timestamp};
use clipcache_media::ClipId;

/// An immutable reference string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Materialize a generator into a trace.
    pub fn from_generator(gen: RequestGenerator) -> Self {
        Trace {
            requests: gen.collect(),
        }
    }

    /// Build directly from requests (timestamps must be strictly increasing).
    ///
    /// # Panics
    /// If timestamps are not strictly increasing.
    pub fn from_requests(requests: Vec<Request>) -> Self {
        for pair in requests.windows(2) {
            assert!(
                pair[0].at < pair[1].at,
                "trace timestamps must be strictly increasing"
            );
        }
        Trace { requests }
    }

    /// Build a trace from bare clip ids, assigning timestamps 1, 2, …
    pub fn from_clip_ids(ids: impl IntoIterator<Item = ClipId>) -> Self {
        Trace {
            requests: ids
                .into_iter()
                .enumerate()
                .map(|(i, clip)| Request::new(Timestamp(i as u64 + 1), clip))
                .collect(),
        }
    }

    /// Number of requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no requests.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests in order.
    #[inline]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Iterate over the requests.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Request> {
        self.requests.iter()
    }

    /// The sub-trace covering requests with 1-based index in `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> &[Request] {
        &self.requests[from.min(self.len())..to.min(self.len())]
    }

    /// A copy of this trace with every timestamp advanced by `offset`
    /// ticks — used when resuming a restored cache whose virtual clock is
    /// already past the trace's native timestamps.
    pub fn with_time_offset(&self, offset: u64) -> Trace {
        Trace {
            requests: self
                .requests
                .iter()
                .map(|r| Request::new(Timestamp(r.at.get() + offset), r.clip))
                .collect(),
        }
    }

    /// Split into `n` sub-traces, request `i` going to partition
    /// `i % n`. Timestamps are preserved, so each partition is itself a
    /// valid (strictly increasing) trace and
    /// [`merge_by_time`](Self::merge_by_time) reconstructs the original.
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn partition_round_robin(&self, n: usize) -> Vec<Trace> {
        self.partition_by(n, |i, _| i % n)
    }

    /// Split into `n` sub-traces with an arbitrary assignment of each
    /// request to a partition — e.g. by clip-id hash, the routing the
    /// sharded serving layer uses. `assign` receives the request's index
    /// and the request; timestamps are preserved.
    ///
    /// # Panics
    /// If `n == 0` or `assign` returns an index `≥ n`.
    pub fn partition_by(
        &self,
        n: usize,
        mut assign: impl FnMut(usize, &Request) -> usize,
    ) -> Vec<Trace> {
        assert!(n > 0, "cannot partition into zero parts");
        let mut parts = vec![Vec::new(); n];
        for (i, r) in self.requests.iter().enumerate() {
            let p = assign(i, r);
            assert!(p < n, "partition index {p} out of range for {n} parts");
            parts[p].push(*r);
        }
        parts
            .into_iter()
            .map(|requests| Trace { requests })
            .collect()
    }

    /// Merge partitions back into one trace ordered by timestamp — the
    /// inverse of [`partition_round_robin`](Self::partition_round_robin)
    /// and [`partition_by`](Self::partition_by).
    ///
    /// # Panics
    /// If two partitions share a timestamp (the merged sequence would not
    /// be strictly increasing).
    pub fn merge_by_time(parts: &[Trace]) -> Trace {
        let total = parts.iter().map(|p| p.len()).sum();
        let mut requests = Vec::with_capacity(total);
        // K-way merge over the (already sorted) partitions.
        let mut cursors = vec![0usize; parts.len()];
        loop {
            let mut best: Option<usize> = None;
            for (i, part) in parts.iter().enumerate() {
                let Some(r) = part.requests.get(cursors[i]) else {
                    continue;
                };
                match best {
                    Some(b) if parts[b].requests[cursors[b]].at <= r.at => {}
                    _ => best = Some(i),
                }
            }
            let Some(b) = best else { break };
            requests.push(parts[b].requests[cursors[b]]);
            cursors[b] += 1;
        }
        Trace::from_requests(requests)
    }

    /// Serialize to a JSON string:
    /// `{"requests":[{"at":1,"clip":5},…]}`, read back by
    /// [`from_json`](Self::from_json).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.requests.len() * 24 + 16);
        out.push_str("{\"requests\":[");
        for (i, r) in self.requests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"at\":");
            out.push_str(&r.at.get().to_string());
            out.push_str(",\"clip\":");
            out.push_str(&r.clip.get().to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Deserialize from a JSON string (the [`to_json`](Self::to_json)
    /// shape).
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = crate::json::parse(json)?;
        let items = v
            .get("requests")
            .ok_or("trace JSON needs a `requests` array")?
            .as_array()
            .ok_or("`requests` must be an array")?;
        let mut requests = Vec::with_capacity(items.len());
        for item in items {
            let at = item
                .get("at")
                .and_then(|n| n.as_u64())
                .ok_or("request needs an integer `at`")?;
            let clip = item
                .get("clip")
                .and_then(|n| n.as_u64())
                .filter(|&id| id >= 1 && id <= u32::MAX as u64)
                .ok_or("request needs a positive 32-bit `clip` id")?;
            requests.push(Request::new(Timestamp(at), ClipId::new(clip as u32)));
        }
        Ok(Trace { requests })
    }

    /// Serialize to the interchange text format: one decimal clip id per
    /// line, in request order (timestamps are implicit: 1, 2, …). This is
    /// the format most published cache traces use.
    pub fn to_plain_text(&self) -> String {
        let mut out = String::with_capacity(self.requests.len() * 4);
        for r in &self.requests {
            out.push_str(&r.clip.get().to_string());
            out.push('\n');
        }
        out
    }

    /// Parse the plain-text format (one clip id per line; blank lines and
    /// `#` comment lines ignored).
    pub fn from_plain_text(text: &str) -> Result<Self, TraceParseError> {
        let mut ids = Vec::new();
        for (line_no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let id: u32 = line.parse().map_err(|_| TraceParseError {
                line: line_no + 1,
                content: line.to_string(),
            })?;
            if id == 0 {
                return Err(TraceParseError {
                    line: line_no + 1,
                    content: line.to_string(),
                });
            }
            ids.push(ClipId::new(id));
        }
        Ok(Trace::from_clip_ids(ids))
    }
}

/// A malformed line in a plain-text trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The offending content.
    pub content: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}: '{}' is not a positive clip id",
            self.line, self.content
        )
    }
}

impl std::error::Error for TraceParseError {}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ClipId> {
        v.iter().map(|&i| ClipId::new(i)).collect()
    }

    #[test]
    fn from_clip_ids_assigns_timestamps() {
        let t = Trace::from_clip_ids(ids(&[3, 1, 3]));
        assert_eq!(t.len(), 3);
        assert_eq!(t.requests()[0], Request::new(Timestamp(1), ClipId::new(3)));
        assert_eq!(t.requests()[2], Request::new(Timestamp(3), ClipId::new(3)));
    }

    #[test]
    fn from_generator_matches_collect() {
        let gen = RequestGenerator::new(20, 0.27, 0, 200, 5);
        let expect: Vec<_> = RequestGenerator::new(20, 0.27, 0, 200, 5).collect();
        let t = Trace::from_generator(gen);
        assert_eq!(t.requests(), expect.as_slice());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_requests_rejected() {
        Trace::from_requests(vec![
            Request::new(Timestamp(2), ClipId::new(1)),
            Request::new(Timestamp(1), ClipId::new(2)),
        ]);
    }

    #[test]
    fn slice_clamps() {
        let t = Trace::from_clip_ids(ids(&[1, 2, 3, 4]));
        assert_eq!(t.slice(1, 3).len(), 2);
        assert_eq!(t.slice(0, 100).len(), 4);
        assert_eq!(t.slice(10, 20).len(), 0);
    }

    #[test]
    fn json_round_trip() {
        let t = Trace::from_clip_ids(ids(&[5, 4, 5, 1]));
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn time_offset_shifts_all_stamps() {
        let t = Trace::from_clip_ids(ids(&[2, 7])).with_time_offset(100);
        assert_eq!(t.requests()[0].at, Timestamp(101));
        assert_eq!(t.requests()[1].at, Timestamp(102));
    }

    #[test]
    fn plain_text_round_trip() {
        let t = Trace::from_clip_ids(ids(&[3, 1, 4, 1, 5]));
        let text = t.to_plain_text();
        assert_eq!(text, "3\n1\n4\n1\n5\n");
        assert_eq!(Trace::from_plain_text(&text).unwrap(), t);
    }

    #[test]
    fn plain_text_skips_comments_and_blanks() {
        let t = Trace::from_plain_text("# a trace\n3\n\n  1  \n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests()[1].clip, ClipId::new(1));
    }

    #[test]
    fn plain_text_rejects_garbage() {
        let err = Trace::from_plain_text("3\nxyz\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("xyz"));
        let err = Trace::from_plain_text("0\n").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn round_robin_partition_and_merge_invert() {
        let t = Trace::from_clip_ids(ids(&[3, 1, 4, 1, 5, 9, 2, 6]));
        for n in 1..=4 {
            let parts = t.partition_round_robin(n);
            assert_eq!(parts.len(), n);
            assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), t.len());
            assert_eq!(Trace::merge_by_time(&parts), t);
        }
        // Partition 0 of 3 holds requests 0, 3, 6 with original stamps.
        let parts = t.partition_round_robin(3);
        assert_eq!(
            parts[0].requests()[1],
            Request::new(Timestamp(4), ClipId::new(1))
        );
    }

    #[test]
    fn partition_by_routes_on_request() {
        let t = Trace::from_clip_ids(ids(&[3, 1, 4, 1, 5]));
        // Route by clip-id parity, as a shard router would.
        let parts = t.partition_by(2, |_, r| (r.clip.get() % 2) as usize);
        assert_eq!(parts[0].len(), 1); // clip 4
        assert_eq!(parts[1].len(), 4); // clips 3, 1, 1, 5
        assert_eq!(parts[0].requests()[0].at, Timestamp(3));
        assert_eq!(Trace::merge_by_time(&parts), t);
    }

    #[test]
    fn partition_handles_empty_parts() {
        let t = Trace::from_clip_ids(ids(&[2, 2]));
        let parts = t.partition_by(4, |_, _| 1);
        assert!(parts[0].is_empty() && parts[2].is_empty() && parts[3].is_empty());
        assert_eq!(parts[1], t);
        assert_eq!(Trace::merge_by_time(&parts), t);
        assert!(Trace::merge_by_time(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn partition_into_zero_rejected() {
        Trace::from_clip_ids(ids(&[1])).partition_round_robin(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_index_out_of_range_rejected() {
        Trace::from_clip_ids(ids(&[1])).partition_by(2, |_, _| 5);
    }

    #[test]
    fn iteration() {
        let t = Trace::from_clip_ids(ids(&[2, 7]));
        let clips: Vec<u32> = (&t).into_iter().map(|r| r.clip.get()).collect();
        assert_eq!(clips, vec![2, 7]);
        assert_eq!(t.iter().len(), 2);
    }
}
