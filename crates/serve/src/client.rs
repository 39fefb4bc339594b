//! A blocking client for the serve protocol, shared by the `tvs-client`
//! binary and the integration tests.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;

use crate::error::ServeError;
use crate::json::{self, Value};
use crate::proto::{read_frame, stamp_version, write_frame};

/// One connection to a `tvs serve` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7077"`).
    ///
    /// # Errors
    ///
    /// Connection failures surface as [`ServeError::Io`].
    pub fn connect(addr: &str) -> Result<Client, ServeError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ServeError::io(format!("connect {addr}"), e))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ServeError::io("clone stream", e))?,
        );
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request document and returns the (already `ok`-checked)
    /// response document. A `"v"` protocol-version field is stamped onto
    /// the request unless the caller already set one.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, and any error response from
    /// the server (decoded back into the matching [`ServeError`] variant).
    pub fn request(&mut self, request: &Value) -> Result<Value, ServeError> {
        write_frame(&mut self.writer, &stamp_version(request).to_text())?;
        let frame = read_frame(&mut self.reader)?
            .ok_or_else(|| ServeError::Protocol("server hung up".to_owned()))?;
        let response = json::parse(&frame).map_err(|e| ServeError::Protocol(e.to_string()))?;
        match response.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(response),
            _ => Err(ServeError::from_wire(&response)),
        }
    }

    /// Submits `.bench` source; returns `(job id, admission)` where
    /// admission is `"miss"`, `"cache-hit"` or `"dedup-hit"`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; notably [`ServeError::Busy`] under load.
    pub fn submit(
        &mut self,
        name: &str,
        bench: &str,
        config: Value,
    ) -> Result<(String, String), ServeError> {
        let response = self.request(&Value::Obj(vec![
            ("op".into(), Value::str("submit")),
            ("name".into(), Value::str(name)),
            ("bench".into(), Value::str(bench)),
            ("config".into(), config),
        ]))?;
        let job = wire_str(&response, "job")?;
        let admission = wire_str(&response, "admission")?;
        Ok((job, admission))
    }

    /// Runs the server's admission analysis over `.bench` source without
    /// submitting a job; returns `(admitted, lint document)` where the
    /// document is the `{"diagnostics":[...],"counts":{...}}` rendering.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; syntax errors (as opposed to design-rule
    /// findings) surface as [`ServeError::Netlist`].
    pub fn lint(&mut self, name: &str, bench: &str) -> Result<(bool, Value), ServeError> {
        let response = self.request(&Value::Obj(vec![
            ("op".into(), Value::str("lint")),
            ("name".into(), Value::str(name)),
            ("bench".into(), Value::str(bench)),
        ]))?;
        let admitted = response
            .get("admitted")
            .and_then(Value::as_bool)
            .ok_or_else(|| ServeError::Protocol("lint response lacks admitted".to_owned()))?;
        let lint = response
            .get("lint")
            .cloned()
            .ok_or_else(|| ServeError::Protocol("lint response lacks lint".to_owned()))?;
        Ok((admitted, lint))
    }

    /// A point-in-time job status document.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn status(&mut self, job: &str) -> Result<Value, ServeError> {
        self.request(&job_op("status", job))
    }

    /// Blocks until the job finishes; returns its final status document.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn wait(&mut self, job: &str) -> Result<Value, ServeError> {
        self.request(&job_op("wait", job))
    }

    /// Blocks until the job finishes; returns the artifact document.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; [`ServeError::JobFailed`] if the run failed.
    pub fn fetch(&mut self, job: &str) -> Result<Value, ServeError> {
        let response = self.request(&job_op("fetch", job))?;
        response
            .get("artifact")
            .cloned()
            .ok_or_else(|| ServeError::Protocol("fetch response lacks artifact".to_owned()))
    }

    /// The server's counter/timer report plus its own gauges.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn stats(&mut self) -> Result<Value, ServeError> {
        self.request(&Value::Obj(vec![("op".into(), Value::str("stats"))]))
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.request(&Value::Obj(vec![("op".into(), Value::str("shutdown"))]))?;
        Ok(())
    }
}

fn job_op(op: &str, job: &str) -> Value {
    Value::Obj(vec![
        ("op".into(), Value::str(op)),
        ("job".into(), Value::str(job)),
    ])
}

fn wire_str(response: &Value, key: &str) -> Result<String, ServeError> {
    response
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ServeError::Protocol(format!("response lacks {key:?}")))
}
