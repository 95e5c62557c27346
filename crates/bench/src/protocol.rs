//! The `spade-serve` wire protocol: length-prefixed frames carrying a
//! small line-oriented request/response vocabulary, plus the canonical
//! text encoding of [`DseParams`] that doubles as the service cache key.
//!
//! The container cannot vendor an async runtime or a real serde, so the
//! protocol is deliberately primitive and dependency-free:
//!
//! * **Framing** — every message is a 4-byte big-endian length followed by
//!   that many bytes of UTF-8 payload ([`write_frame`] / [`read_frame`]).
//!   Lengths above [`MAX_FRAME_BYTES`] are rejected before any allocation,
//!   so a garbage prefix cannot balloon the server.
//! * **Requests** — one verb per frame: `SWEEP <params>` runs (or serves
//!   from cache) a DSE sweep, `FRAME <fields>` executes one frame of a
//!   persistent-world drive the server caches per (drive, model), `STATS`,
//!   `PING`, and `SHUTDOWN`.
//! * **Responses** — `OK <meta>` on the first line (space-separated
//!   `key=value` tokens, e.g. `hit=1`) with the body (CSV grid, stats
//!   lines) on the following lines, or `ERR <message>`. A `SWEEP` reply
//!   carries three admission flags: `hit=1` (served from the completed-
//!   result cache), `join=1` (parked on an identical in-flight sweep and
//!   received its result; `deduped=1` is the legacy spelling of the same
//!   flag), or all zeros (this request executed the sweep). Load
//!   generators count `hit=1` and `join=1` both as *warm* — neither ran
//!   anything — so measured warm rates match the analytic hit-rate
//!   expectation even when concurrency converts cache hits into joins.
//!
//! ## Canonical parameter form
//!
//! [`DseParams`] is encoded as one `;`-separated `key=value` line
//! ([`encode_params`] / [`decode_params`], exact round-trip — floats use
//! Rust's shortest round-trip `Display`). Two requests that mean the same
//! sweep must hit the same cache entry **and** return byte-identical
//! results, so the server first rewrites the params into the canonical
//! form ([`canonicalize_params`]: every axis sorted and deduped, models in
//! zoo order, frame count clamped positive) and both executes and caches
//! that form — [`cache_key`] is just the canonical encoding. Axis order
//! never changes which cells a sweep contains (only their order in the
//! export), so canonical execution answers any axis-order spelling of the
//! request with one cached result.

use crate::dse::{DseParams, SweepAxes};
use crate::workload::WorkloadScale;
use spade_core::{DataflowOptions, GATHER_SCATTER_LANES};
use spade_nn::ModelKind;
use spade_pointcloud::{DensityProfile, NamedScenario};
use std::fmt::Write as _;
use std::io::{Read, Write};

/// Hard ceiling on a frame's payload size (16 MiB). A full-grid CSV is a
/// few hundred KiB; anything near this limit is a corrupt or hostile
/// length prefix and is rejected before allocating.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above [`MAX_FRAME_BYTES`] with
/// [`std::io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                payload.len()
            ),
        ));
    }
    // lint:allow(panic): the guard above caps len at MAX_FRAME_BYTES,
    // which fits u32 by construction.
    let len = u32::try_from(payload.len()).expect("bounded by MAX_FRAME_BYTES");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF
/// (the peer closed between frames).
///
/// # Errors
///
/// Propagates I/O errors; a length prefix above [`MAX_FRAME_BYTES`] or an
/// EOF mid-frame yields [`std::io::ErrorKind::InvalidData`] /
/// [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve from cache) the sweep described by the params.
    Sweep(DseParams),
    /// Execute one frame of a persistent-world drive stream.
    Frame(FrameRequest),
    /// Report service counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop accepting connections and exit the request loop.
    Shutdown,
}

/// The fields of a `FRAME` streamed-drive request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRequest {
    /// Client-chosen drive identity; the server caches the generated drive
    /// per `(drive, model)`.
    pub drive: String,
    /// Scripted scenario the drive plays.
    pub scenario: NamedScenario,
    /// Model executed on each frame.
    pub model: ModelKind,
    /// Workload scale to execute the frames at.
    pub scale: WorkloadScale,
    /// Drive seed.
    pub seed: u64,
    /// Total frames of the drive.
    pub frames: usize,
    /// Frame index to execute (0-based, `< frames`).
    pub index: usize,
}

/// Encodes a request into its frame payload.
#[must_use]
pub fn encode_request(request: &Request) -> String {
    match request {
        Request::Sweep(params) => format!("SWEEP {}", encode_params(params)),
        Request::Frame(f) => format!(
            "FRAME drive={};scenario={};model={};scale={};seed={};frames={};index={}",
            f.drive,
            f.scenario.name(),
            f.model.name(),
            encode_scale(f.scale),
            f.seed,
            f.frames,
            f.index
        ),
        Request::Stats => "STATS".to_owned(),
        Request::Ping => "PING".to_owned(),
        Request::Shutdown => "SHUTDOWN".to_owned(),
    }
}

/// Parses a request frame payload.
///
/// # Errors
///
/// Returns a human-readable message for unknown verbs or malformed
/// arguments — the server relays it verbatim in an `ERR` response.
pub fn decode_request(payload: &str) -> Result<Request, String> {
    let payload = payload.trim_end_matches(['\r', '\n']);
    let (verb, rest) = match payload.split_once(' ') {
        Some((v, r)) => (v, r),
        None => (payload, ""),
    };
    match verb {
        "SWEEP" => Ok(Request::Sweep(decode_params(rest)?)),
        "FRAME" => Ok(Request::Frame(decode_frame_request(rest)?)),
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "SHUTDOWN" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown verb '{other}' (expected SWEEP | FRAME | STATS | PING | SHUTDOWN)"
        )),
    }
}

/// The exact field set of a `FRAME` request body. Anything else is either
/// a typo or a `;` smuggled through a drive name — both are rejected so
/// the encode/decode symmetry holds for every accepted request.
const FRAME_FIELDS: [&str; 7] = [
    "drive", "scenario", "model", "scale", "seed", "frames", "index",
];

/// Drive identities travel verbatim inside the `;`-separated field line,
/// so names that would collide with the field syntax (or hide whitespace)
/// are rejected rather than escaped.
fn validate_drive(name: &str) -> Result<&str, String> {
    if name.is_empty() {
        return Err("drive name must not be empty".to_owned());
    }
    if name.contains([';', '=', '\n', '\r']) {
        return Err(format!(
            "drive name '{name}' contains a reserved character (';', '=', or newline)"
        ));
    }
    if name != name.trim() {
        return Err(format!(
            "drive name '{name}' has leading or trailing whitespace"
        ));
    }
    Ok(name)
}

fn decode_frame_request(body: &str) -> Result<FrameRequest, String> {
    let fields = parse_fields(body)?;
    if let Some((key, _)) = fields
        .iter()
        .find(|(k, _)| !FRAME_FIELDS.contains(&k.as_str()))
    {
        return Err(format!("unexpected field '{key}' in FRAME request"));
    }
    if fields.len() > FRAME_FIELDS.len() {
        return Err("duplicate field in FRAME request".to_owned());
    }
    let get = |key: &str| field(&fields, key);
    let scenario_raw = get("scenario")?;
    let model_raw = get("model")?;
    Ok(FrameRequest {
        drive: validate_drive(get("drive")?)?.to_owned(),
        scenario: NamedScenario::parse(scenario_raw)
            .ok_or_else(|| format!("unknown scenario '{scenario_raw}'"))?,
        model: parse_model(model_raw)?,
        scale: decode_scale(get("scale")?)?,
        seed: parse_num(get("seed")?, "seed")?,
        frames: parse_num(get("frames")?, "frames")?,
        index: parse_num(get("index")?, "index")?,
    })
}

/// One `OK`/`ERR` response frame, split into the meta line and the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success: space-separated `key=value` meta tokens plus a body.
    Ok {
        /// Meta tokens of the first line (after `OK `), e.g. `hit=1`.
        meta: String,
        /// Everything after the first line.
        body: String,
    },
    /// Failure, with the reason.
    Err(String),
}

impl Response {
    /// Builds a success response.
    #[must_use]
    pub fn ok(meta: impl Into<String>, body: impl Into<String>) -> Self {
        Response::Ok {
            meta: meta.into(),
            body: body.into(),
        }
    }

    /// Serialises the response into its frame payload.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            Response::Ok { meta, body } if body.is_empty() => format!("OK {meta}"),
            Response::Ok { meta, body } => format!("OK {meta}\n{body}"),
            Response::Err(message) => format!("ERR {}", message.replace('\n', " ")),
        }
    }

    /// Parses a response frame payload.
    ///
    /// # Errors
    ///
    /// Returns a message when the payload carries neither an `OK` nor an
    /// `ERR` status line.
    pub fn decode(payload: &str) -> Result<Self, String> {
        let (status_line, body) = match payload.split_once('\n') {
            Some((s, b)) => (s, b.to_owned()),
            None => (payload, String::new()),
        };
        if status_line == "OK" {
            return Ok(Response::Ok {
                meta: String::new(),
                body,
            });
        }
        if let Some(meta) = status_line.strip_prefix("OK ") {
            return Ok(Response::Ok {
                meta: meta.to_owned(),
                body,
            });
        }
        if let Some(message) = status_line.strip_prefix("ERR ") {
            return Ok(Response::Err(message.to_owned()));
        }
        Err(format!("malformed response status line: '{status_line}'"))
    }

    /// Looks up a `key=value` token of the meta line.
    #[must_use]
    pub fn meta_field(&self, key: &str) -> Option<&str> {
        match self {
            Response::Ok { meta, .. } => meta
                .split(' ')
                .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')),
            Response::Err(_) => None,
        }
    }
}

// ---------------------------------------------------------------------------
// DseParams encoding

/// Encodes sweep params as one `;`-separated `key=value` line. Exact
/// round-trip with [`decode_params`]; field order and axis order are
/// preserved verbatim (canonicalisation is a separate, explicit step).
#[must_use]
pub fn encode_params(params: &DseParams) -> String {
    let mut s = String::new();
    let _ = write!(s, "scale={}", encode_scale(params.scale));
    let _ = write!(
        s,
        ";models={}",
        join(params.models.iter().map(|m| m.name()))
    );
    let _ = write!(s, ";frames={};seed={}", params.num_frames, params.base_seed);
    let _ = write!(
        s,
        ";profile={}",
        match params.profile {
            DensityProfile::Constant => "const".to_owned(),
            DensityProfile::Ramp { start, end } => format!("ramp:{start}:{end}"),
            DensityProfile::Peak { base, peak } => format!("peak:{base}:{peak}"),
        }
    );
    if let Some(scenario) = params.scenario {
        let _ = write!(s, ";scenario={}", scenario.name());
    }
    let axes = &params.axes;
    let _ = write!(
        s,
        ";pe={}",
        join(axes.pe_dims.iter().map(|&(r, c)| format!("{r}x{c}")))
    );
    let _ = write!(
        s,
        ";sram={}",
        join(axes.sram_scales.iter().map(f64::to_string))
    );
    let _ = write!(s, ";ghz={}", join(axes.freq_ghz.iter().map(f64::to_string)));
    let _ = write!(
        s,
        ";bpc={}",
        join(axes.dram_bytes_per_cycle.iter().map(f64::to_string))
    );
    let _ = write!(
        s,
        ";df={}",
        join(axes.dataflow.iter().map(|o| dataflow_mask(o).to_string()))
    );
    // Fields introduced after the v1 encoding are appended only at
    // non-default values (the `scenario` precedent): every legacy sweep
    // encodes — and therefore cache-keys — byte-identically to before.
    if axes.buffer_splits != [0.0] {
        let _ = write!(
            s,
            ";bs={}",
            join(axes.buffer_splits.iter().map(f64::to_string))
        );
    }
    if axes.sram_banks != [GATHER_SCATTER_LANES] {
        let _ = write!(
            s,
            ";bank={}",
            join(axes.sram_banks.iter().map(u32::to_string))
        );
    }
    if params.adaptive {
        s.push_str(";adaptive=1");
    }
    s
}

fn join<S: AsRef<str>>(items: impl Iterator<Item = S>) -> String {
    let mut out = String::new();
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push('+');
        }
        out.push_str(item.as_ref());
    }
    out
}

fn dataflow_mask(options: &DataflowOptions) -> u8 {
    u8::from(options.weight_grouping)
        | (u8::from(options.ganged_scatter) << 1)
        | (u8::from(options.adaptive_tiling) << 2)
}

fn dataflow_from_mask(mask: u8) -> DataflowOptions {
    DataflowOptions {
        weight_grouping: mask & 1 != 0,
        ganged_scatter: mask & 2 != 0,
        adaptive_tiling: mask & 4 != 0,
    }
}

/// Decodes the [`encode_params`] line back into sweep params.
///
/// # Errors
///
/// Returns a message naming the offending field for missing keys,
/// unknown enum names, non-finite floats, and unparsable numbers.
pub fn decode_params(line: &str) -> Result<DseParams, String> {
    let fields = parse_fields(line)?;
    let get = |key: &str| field(&fields, key);
    let scale = decode_scale(get("scale")?)?;
    let models = split_list(get("models")?)
        .map(parse_model)
        .collect::<Result<Vec<_>, _>>()?;
    let profile_raw = get("profile")?;
    let profile = match profile_raw.split(':').collect::<Vec<_>>().as_slice() {
        ["const"] => DensityProfile::Constant,
        ["ramp", start, end] => DensityProfile::Ramp {
            start: parse_f64(start, "profile")?,
            end: parse_f64(end, "profile")?,
        },
        ["peak", base, peak] => DensityProfile::Peak {
            base: parse_f64(base, "profile")?,
            peak: parse_f64(peak, "profile")?,
        },
        _ => return Err(format!("malformed profile '{profile_raw}'")),
    };
    let scenario = match fields.iter().find(|(k, _)| k == "scenario") {
        Some((_, raw)) => {
            Some(NamedScenario::parse(raw).ok_or_else(|| format!("unknown scenario '{raw}'"))?)
        }
        None => None,
    };
    let pe_dims = split_list(get("pe")?)
        .map(|tok| {
            let (r, c) = tok
                .split_once('x')
                .ok_or_else(|| format!("malformed PE dim '{tok}'"))?;
            Ok((parse_num(r, "pe")?, parse_num(c, "pe")?))
        })
        .collect::<Result<Vec<(usize, usize)>, String>>()?;
    let floats = |key: &str| -> Result<Vec<f64>, String> {
        split_list(field(&fields, key)?)
            .map(|tok| parse_f64(tok, key))
            .collect()
    };
    let dataflow = split_list(get("df")?)
        .map(|tok| {
            let mask: u8 = parse_num(tok, "df")?;
            if mask > 7 {
                return Err(format!("dataflow mask {mask} out of range 0..=7"));
            }
            Ok(dataflow_from_mask(mask))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Post-v1 fields: absent means the v1 default, so legacy request lines
    // keep parsing (and meaning) exactly what they always did.
    let buffer_splits = match fields.iter().find(|(k, _)| k == "bs") {
        Some(_) => floats("bs")?,
        None => vec![0.0],
    };
    let sram_banks = match fields.iter().find(|(k, _)| k == "bank") {
        Some((_, raw)) => split_list(raw)
            .map(|tok| parse_num(tok, "bank"))
            .collect::<Result<Vec<u32>, String>>()?,
        None => vec![GATHER_SCATTER_LANES],
    };
    let adaptive = match fields.iter().find(|(k, _)| k == "adaptive") {
        Some((_, raw)) => match raw.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("adaptive expects 0 or 1, got '{other}'")),
        },
        None => false,
    };
    Ok(DseParams {
        scale,
        axes: SweepAxes {
            pe_dims,
            sram_scales: floats("sram")?,
            freq_ghz: floats("ghz")?,
            dram_bytes_per_cycle: floats("bpc")?,
            buffer_splits,
            sram_banks,
            dataflow,
        },
        models,
        num_frames: parse_num(get("frames")?, "frames")?,
        base_seed: parse_num(get("seed")?, "seed")?,
        profile,
        scenario,
        adaptive,
    })
}

fn parse_fields(line: &str) -> Result<Vec<(String, String)>, String> {
    line.split(';')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("malformed field '{part}' (expected key=value)"))?;
            Ok((k.to_owned(), v.to_owned()))
        })
        .collect()
}

fn field<'a>(fields: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn split_list(value: &str) -> impl Iterator<Item = &str> {
    value.split('+').filter(|tok| !tok.is_empty())
}

fn encode_scale(scale: WorkloadScale) -> &'static str {
    match scale {
        WorkloadScale::Full => "full",
        WorkloadScale::Reduced => "reduced",
    }
}

fn decode_scale(raw: &str) -> Result<WorkloadScale, String> {
    match raw {
        "full" => Ok(WorkloadScale::Full),
        "reduced" => Ok(WorkloadScale::Reduced),
        other => Err(format!("unknown scale '{other}'")),
    }
}

fn parse_model(name: &str) -> Result<ModelKind, String> {
    ModelKind::ALL
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| format!("unknown model '{name}'"))
}

fn parse_num<T: std::str::FromStr>(raw: &str, what: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{what} expects an integer, got '{raw}'"))
}

fn parse_f64(raw: &str, what: &str) -> Result<f64, String> {
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("{what} expects a number, got '{raw}'"))?;
    if !v.is_finite() {
        return Err(format!("{what} must be finite, got '{raw}'"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Canonical form

/// Rewrites params into the canonical form the server executes and caches:
/// every sweep axis sorted ascending and deduped, models sorted into zoo
/// order and deduped, and the frame count clamped positive (matching
/// [`DseParams::drive_config`], which never simulates zero frames).
///
/// Axis and model *sets* — and therefore the cells a sweep simulates — are
/// untouched; only their ordering is normalised, so any axis-order
/// spelling of the same sweep shares one cache entry and one byte-exact
/// result.
#[must_use]
pub fn canonicalize_params(params: &DseParams) -> DseParams {
    let mut canon = params.clone();
    canon.num_frames = canon.num_frames.max(1);
    let zoo_index = |m: ModelKind| {
        // lint:allow(panic): ModelKind::ALL enumerates the whole enum, so
        // the position lookup cannot miss.
        ModelKind::ALL
            .iter()
            .position(|&k| k == m)
            .expect("every ModelKind is in ALL")
    };
    canon.models.sort_by_key(|&m| zoo_index(m));
    canon.models.dedup();
    let axes = &mut canon.axes;
    axes.pe_dims.sort_unstable();
    axes.pe_dims.dedup();
    sort_dedup_floats(&mut axes.sram_scales);
    sort_dedup_floats(&mut axes.freq_ghz);
    sort_dedup_floats(&mut axes.dram_bytes_per_cycle);
    sort_dedup_floats(&mut axes.buffer_splits);
    axes.sram_banks.sort_unstable();
    axes.sram_banks.dedup();
    axes.dataflow.sort_by_key(dataflow_mask);
    axes.dataflow.dedup();
    canon
}

fn sort_dedup_floats(values: &mut Vec<f64>) {
    values.sort_by(f64::total_cmp);
    values.dedup_by(|a, b| a.to_bits() == b.to_bits());
}

/// The service cache key of a sweep request: the canonical encoding. Two
/// params that differ only in axis/model order — or in duplicated axis
/// values, which [`SweepAxes::expand_configs`] ignores anyway — map to the
/// same key.
#[must_use]
pub fn cache_key(params: &DseParams) -> String {
    encode_params(&canonicalize_params(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> DseParams {
        let mut params = DseParams::default_for(WorkloadScale::Reduced);
        params.scenario = Some(NamedScenario::StopAndGo);
        params.models = vec![ModelKind::Scp3, ModelKind::Spp2];
        params
    }

    #[test]
    fn params_round_trip_exactly() {
        let params = sample_params();
        let encoded = encode_params(&params);
        assert_eq!(decode_params(&encoded).unwrap(), params);
        // Legacy profile (no scenario key) round-trips too.
        let legacy = DseParams::default_for(WorkloadScale::Full);
        assert_eq!(decode_params(&encode_params(&legacy)).unwrap(), legacy);
        // The post-v1 fields round-trip at non-default values.
        let mut enlarged = sample_params();
        enlarged.axes.buffer_splits = vec![0.0, 0.25, 0.75];
        enlarged.axes.sram_banks = vec![16, 4, 1];
        enlarged.adaptive = true;
        let encoded = encode_params(&enlarged);
        assert!(encoded.contains(";bs=0+0.25+0.75"));
        assert!(encoded.contains(";bank=16+4+1"));
        assert!(encoded.ends_with(";adaptive=1"));
        assert_eq!(decode_params(&encoded).unwrap(), enlarged);
    }

    #[test]
    fn post_v1_fields_keep_legacy_encodings_byte_stable() {
        // A default-axes request encodes without the bs/bank/adaptive keys
        // (so v1 cache keys are untouched)...
        let legacy = sample_params();
        let encoded = encode_params(&legacy);
        for key in [";bs=", ";bank=", ";adaptive="] {
            assert!(!encoded.contains(key), "'{encoded}' leaks '{key}'");
        }
        // ...and a v1 request line (no such keys) still decodes, meaning
        // exactly the defaults.
        let decoded = decode_params(&encoded).unwrap();
        assert_eq!(decoded.axes.buffer_splits, vec![0.0]);
        assert_eq!(decoded.axes.sram_banks, vec![GATHER_SCATTER_LANES]);
        assert!(!decoded.adaptive);
        // An explicit `adaptive=0` is accepted and canonicalises onto the
        // legacy key, so both spellings share one cache entry.
        let spelled = decode_params(&format!("{encoded};adaptive=0")).unwrap();
        assert_eq!(spelled, legacy);
        assert_eq!(cache_key(&spelled), cache_key(&legacy));
        // Lines from before delta execution was retired still carry a
        // `delta=` key; it is ignored like any unknown key, so either value
        // decodes to the line without it.
        assert!(!encoded.contains("delta="), "'{encoded}' leaks 'delta='");
        for retired in ["delta=0", "delta=1"] {
            let (head, tail) = encoded.split_once(";pe=").unwrap();
            let line = format!("{head};{retired};pe={tail}");
            assert_eq!(decode_params(&line).unwrap(), legacy, "{line}");
        }
        // Adaptive exploration changes the exported bytes (extra columns,
        // bound-valued screened cells), so it must key separately.
        let mut adaptive = legacy.clone();
        adaptive.adaptive = true;
        assert_ne!(cache_key(&adaptive), cache_key(&legacy));
    }

    #[test]
    fn canonical_form_sorts_the_new_axes() {
        let mut params = sample_params();
        params.axes.buffer_splits = vec![0.75, 0.25, 0.75];
        params.axes.sram_banks = vec![4, 16, 4];
        let canon = canonicalize_params(&params);
        assert_eq!(canon.axes.buffer_splits, vec![0.25, 0.75]);
        assert_eq!(canon.axes.sram_banks, vec![4, 16]);
    }

    #[test]
    fn axis_order_does_not_change_the_cache_key() {
        let a = sample_params();
        let mut b = a.clone();
        b.axes.pe_dims.reverse();
        b.axes.sram_scales.reverse();
        b.axes.freq_ghz.reverse();
        b.axes.dram_bytes_per_cycle.reverse();
        b.models.reverse();
        assert_ne!(encode_params(&a), encode_params(&b), "encode is verbatim");
        assert_eq!(cache_key(&a), cache_key(&b), "canonical key ignores order");
        // A genuinely different sweep keys differently.
        let mut c = a.clone();
        c.base_seed += 1;
        assert_ne!(cache_key(&a), cache_key(&c));
    }

    #[test]
    fn canonical_form_dedupes_and_clamps() {
        let mut params = sample_params();
        params.axes.sram_scales = vec![1.0, 0.5, 1.0];
        params.models = vec![ModelKind::Spp2, ModelKind::Spp2];
        params.num_frames = 0;
        let canon = canonicalize_params(&params);
        assert_eq!(canon.axes.sram_scales, vec![0.5, 1.0]);
        assert_eq!(canon.models, vec![ModelKind::Spp2]);
        assert_eq!(canon.num_frames, 1);
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Sweep(sample_params()),
            Request::Frame(FrameRequest {
                drive: "veh-17".to_owned(),
                scenario: NamedScenario::Tunnel,
                model: ModelKind::Spp2,
                scale: WorkloadScale::Reduced,
                seed: 99,
                frames: 20,
                index: 3,
            }),
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for request in requests {
            let encoded = encode_request(&request);
            assert_eq!(decode_request(&encoded).unwrap(), request, "{encoded}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        for (payload, needle) in [
            ("NUKE the grid", "unknown verb"),
            ("SWEEP scale=warp", "unknown scale"),
            ("SWEEP scale=reduced", "missing field"),
            ("SWEEP scale=reduced;models=SPP9;frames=1;seed=1;profile=const;pe=16x16;sram=1;ghz=1;bpc=12.8;df=7", "unknown model"),
            ("FRAME drive=x;scenario=volcano;model=SPP2;seed=1;frames=2;index=0", "unknown scenario"),
            // A ';' in a drive name parses as an injected extra field.
            ("FRAME drive=x;evil=1;scenario=tunnel;model=SPP2;scale=reduced;seed=1;frames=2;index=0", "unexpected field"),
            ("FRAME drive=a=b;scenario=tunnel;model=SPP2;scale=reduced;seed=1;frames=2;index=0", "reserved character"),
            ("FRAME drive= x;scenario=tunnel;model=SPP2;scale=reduced;seed=1;frames=2;index=0", "whitespace"),
            ("FRAME drive=;scenario=tunnel;model=SPP2;scale=reduced;seed=1;frames=2;index=0", "must not be empty"),
            ("FRAME drive=x;drive=y;scenario=tunnel;model=SPP2;scale=reduced;seed=1;frames=2;index=0", "duplicate field"),
            ("SWEEP scale=reduced;models=SPP2;frames=1;seed=1;profile=ramp:0.5:inf;pe=16x16;sram=1;ghz=1;bpc=12.8;df=7", "finite"),
            ("SWEEP scale=reduced;models=SPP2;frames=1;seed=1;profile=const;pe=16x16;sram=1;ghz=1;bpc=12.8;df=7;adaptive=2", "adaptive expects 0 or 1"),
            ("SWEEP scale=reduced;models=SPP2;frames=1;seed=1;profile=const;pe=16x16;sram=1;ghz=1;bpc=12.8;df=7;bank=many", "bank expects an integer"),
        ] {
            let err = decode_request(payload).unwrap_err();
            assert!(err.contains(needle), "'{err}' lacks '{needle}'");
        }
    }

    #[test]
    fn frames_cap_oversized_payloads_both_ways() {
        let huge = vec![b'x'; MAX_FRAME_BYTES + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &huge).is_err());
        // A hostile length prefix is rejected before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn frame_round_trip_and_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"PING").unwrap();
        write_frame(&mut wire, "STATS".as_bytes()).unwrap();
        let mut cursor = wire.as_slice();
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"PING");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"STATS");
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
        // EOF mid-frame is an error, not a silent truncation.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"SWEEP ...").unwrap();
        truncated.pop();
        let mut cursor = truncated.as_slice();
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn responses_round_trip_and_expose_meta() {
        let ok = Response::ok("hit=1 deduped=0", "csv,body\n1,2");
        let decoded = Response::decode(&ok.encode()).unwrap();
        assert_eq!(decoded, ok);
        assert_eq!(decoded.meta_field("hit"), Some("1"));
        assert_eq!(decoded.meta_field("deduped"), Some("0"));
        assert_eq!(decoded.meta_field("absent"), None);
        let err = Response::Err("bad params\nwith newline".to_owned());
        match Response::decode(&err.encode()).unwrap() {
            Response::Err(message) => assert_eq!(message, "bad params with newline"),
            other => panic!("expected ERR, got {other:?}"),
        }
        assert!(Response::decode("GARBAGE").is_err());
        // 'OK' must stand alone or be followed by a space — 'OKAY ...'
        // is malformed, not an OK with mangled meta.
        assert!(Response::decode("OKAY hit=1").is_err());
        assert!(Response::decode("OK=1").is_err());
        // Empty-body OK stays a single line.
        let pong = Response::ok("pong", "");
        assert_eq!(pong.encode(), "OK pong");
        assert_eq!(Response::decode("OK pong").unwrap(), pong);
    }
}
