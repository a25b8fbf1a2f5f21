//! HTTP response construction and writing.

use minaret_json::Value;

/// An HTTP response about to be written.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers (Content-Length and Connection are added at write time).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Value) -> Response {
        Response::json_bytes(status, value.to_string().into_bytes())
    }

    /// A JSON response from pre-serialized bytes. This is the cache
    /// hit path: serving stored bytes directly guarantees the response
    /// is byte-identical to the one that populated the cache.
    pub fn json_bytes(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: vec![(
                "Content-Type".into(),
                "application/json; charset=utf-8".into(),
            )],
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// The standard JSON error envelope `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &Value::object().set("error", message))
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Reason phrase for the status codes this server emits.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response head + body with the given connection
    /// disposition.
    fn serialize(&self, close: bool) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (k, v) in &self.headers {
            out.push_str(k);
            out.push_str(": ");
            out.push_str(v);
            out.push_str("\r\n");
        }
        out.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        out.push_str(if close {
            "Connection: close\r\n\r\n"
        } else {
            "Connection: keep-alive\r\n\r\n"
        });
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }

    /// Serializes the response head + body (close-per-request form).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.serialize(true)
    }

    /// Serializes the response head + body with an explicit connection
    /// disposition. The reactor uses this to build its non-blocking
    /// write buffer instead of writing to the socket directly.
    pub fn to_bytes_with(&self, close: bool) -> Vec<u8> {
        self.serialize(close)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_response_has_content_type_and_length() {
        let r = Response::json(200, &Value::object().set("ok", true));
        let bytes = r.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json"));
        assert!(text.contains("Content-Length: 11"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn error_envelope_is_json() {
        let r = Response::error(404, "no such route");
        assert_eq!(r.status, 404);
        assert_eq!(r.reason(), "Not Found");
        assert!(String::from_utf8(r.body).unwrap().contains("no such route"));
    }

    #[test]
    fn custom_headers_are_emitted() {
        let r = Response::text(200, "hi").with_header("X-Custom", "1");
        let text = String::from_utf8(r.to_bytes()).unwrap();
        assert!(text.contains("X-Custom: 1\r\n"));
        assert!(text.contains("Connection: close"));
    }

    #[test]
    fn keep_alive_serialization_differs_only_in_connection_header() {
        let r = Response::text(200, "hi");
        let close = String::from_utf8(r.serialize(true)).unwrap();
        let keep = String::from_utf8(r.serialize(false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert_eq!(
            close.replace("Connection: close", "Connection: keep-alive"),
            keep
        );
    }

    #[test]
    fn json_bytes_serves_stored_payload_verbatim() {
        let stored = br#"{"cached":true}"#.to_vec();
        let r = Response::json_bytes(200, stored.clone());
        assert_eq!(r.body, stored);
        assert_eq!(
            r.to_bytes(),
            Response::json(200, &minaret_json::parse(r#"{"cached":true}"#).unwrap()).to_bytes()
        );
    }

    #[test]
    fn overload_status_reasons() {
        assert_eq!(Response::text(408, "").reason(), "Request Timeout");
        assert_eq!(Response::text(429, "").reason(), "Too Many Requests");
        assert_eq!(Response::text(503, "").reason(), "Service Unavailable");
        assert_eq!(Response::text(299, "").reason(), "Unknown");
    }
}
