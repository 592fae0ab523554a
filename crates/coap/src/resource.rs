//! Server-side resource model: paths mapped to handlers, plus the
//! CoRE link-format listing of `/.well-known/core` (RFC 6690).

use crate::message::Code;
use std::collections::BTreeMap;

/// A decoded request as seen by a resource handler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Method (GET/POST/PUT/DELETE).
    pub method: Code,
    /// Uri-Path joined with `/`.
    pub path: String,
    /// Uri-Query strings.
    pub query: Vec<String>,
    /// Request payload.
    pub payload: Vec<u8>,
}

/// A handler's response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Response code.
    pub code: Code,
    /// Response payload.
    pub payload: Vec<u8>,
}

impl Response {
    /// 2.05 Content with a payload.
    pub fn content(payload: Vec<u8>) -> Self {
        Response {
            code: Code::Content,
            payload,
        }
    }

    /// 2.04 Changed, empty payload.
    pub fn changed() -> Self {
        Response {
            code: Code::Changed,
            payload: Vec::new(),
        }
    }

    /// 4.04 Not Found.
    pub fn not_found() -> Self {
        Response {
            code: Code::NotFound,
            payload: Vec::new(),
        }
    }

    /// 4.05 Method Not Allowed.
    pub fn method_not_allowed() -> Self {
        Response {
            code: Code::MethodNotAllowed,
            payload: Vec::new(),
        }
    }
}

/// A resource handler: invoked per matching request.
pub type Handler = Box<dyn FnMut(&Request) -> Response>;

/// The server's resource tree (exact-path dispatch).
///
/// # Examples
///
/// ```
/// use iiot_coap::resource::{Request, ResourceMap, Response};
/// use iiot_coap::message::Code;
///
/// let mut map = ResourceMap::new();
/// map.add("sensors/temp", Box::new(|_req| Response::content(b"21.5".to_vec())));
/// let req = Request { method: Code::Get, path: "sensors/temp".into(), query: vec![], payload: vec![] };
/// assert_eq!(map.dispatch(&req).payload, b"21.5");
/// ```
#[derive(Default)]
pub struct ResourceMap {
    handlers: BTreeMap<String, Handler>,
}

impl ResourceMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the handler for `path`.
    pub fn add(&mut self, path: &str, handler: Handler) {
        self.handlers
            .insert(path.trim_matches('/').to_owned(), handler);
    }

    /// Removes the handler for `path`; returns whether one existed.
    pub fn remove(&mut self, path: &str) -> bool {
        self.handlers.remove(path.trim_matches('/')).is_some()
    }

    /// Whether `path` is registered.
    pub fn contains(&self, path: &str) -> bool {
        self.handlers.contains_key(path.trim_matches('/'))
    }

    /// Registered paths, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.handlers.keys().map(String::as_str)
    }

    /// Dispatches a request: runs the handler, answers the well-known
    /// core listing, or returns 4.04.
    pub fn dispatch(&mut self, req: &Request) -> Response {
        let path = req.path.trim_matches('/');
        if path == ".well-known/core" {
            return if req.method == Code::Get {
                Response::content(self.link_format().into_bytes())
            } else {
                Response::method_not_allowed()
            };
        }
        match self.handlers.get_mut(path) {
            Some(h) => h(req),
            None => Response::not_found(),
        }
    }

    /// The CoRE link-format listing: `</a>,</b/c>,...`.
    pub fn link_format(&self) -> String {
        self.handlers
            .keys()
            .map(|p| format!("</{p}>"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl core::fmt::Debug for ResourceMap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ResourceMap")
            .field("paths", &self.handlers.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request {
            method: Code::Get,
            path: path.into(),
            query: vec![],
            payload: vec![],
        }
    }

    #[test]
    fn dispatch_exact_path() {
        let mut map = ResourceMap::new();
        map.add("a/b", Box::new(|_| Response::content(b"ok".to_vec())));
        assert_eq!(map.dispatch(&get("a/b")).code, Code::Content);
        assert_eq!(
            map.dispatch(&get("/a/b/")).code,
            Code::Content,
            "slash-insensitive"
        );
        assert_eq!(map.dispatch(&get("a")).code, Code::NotFound);
        assert!(map.contains("a/b"));
        assert!(map.remove("a/b"));
        assert_eq!(map.dispatch(&get("a/b")).code, Code::NotFound);
    }

    #[test]
    fn handler_sees_method_and_payload() {
        let mut map = ResourceMap::new();
        map.add(
            "act",
            Box::new(|req| {
                if req.method == Code::Put {
                    Response::changed()
                } else {
                    Response::method_not_allowed()
                }
            }),
        );
        let mut put = get("act");
        put.method = Code::Put;
        put.payload = b"on".to_vec();
        assert_eq!(map.dispatch(&put).code, Code::Changed);
        assert_eq!(map.dispatch(&get("act")).code, Code::MethodNotAllowed);
    }

    #[test]
    fn well_known_core_lists_resources() {
        let mut map = ResourceMap::new();
        map.add("sensors/temp", Box::new(|_| Response::content(vec![])));
        map.add("actuators/valve", Box::new(|_| Response::content(vec![])));
        let r = map.dispatch(&get(".well-known/core"));
        assert_eq!(r.code, Code::Content);
        let body = String::from_utf8(r.payload).expect("utf8");
        assert_eq!(body, "</actuators/valve>,</sensors/temp>");
    }

    #[test]
    fn stateful_handler() {
        let mut map = ResourceMap::new();
        let mut count = 0u32;
        map.add(
            "counter",
            Box::new(move |_| {
                count += 1;
                Response::content(count.to_string().into_bytes())
            }),
        );
        assert_eq!(map.dispatch(&get("counter")).payload, b"1");
        assert_eq!(map.dispatch(&get("counter")).payload, b"2");
    }
}
